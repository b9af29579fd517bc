"""Smoke tests: every demo script and the README quick start run against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    _run_python(str(script))


def test_readme_quick_start_runs_as_documented():
    # the README's python block runs, and each print matches its `# ...` comment
    # (a trailing parenthetical in the comment is a remark, not output)
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    expected = [
        re.sub(r"\s*\(.*\)$", "", line.split("#", 1)[1].strip())
        for line in block.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected == ["good 6", "987900542491"]
    assert _run_python("-c", block).splitlines() == expected
