"""The benchmark's own tests: smoke runs through the full path, the
result format against BENCHMARK.json, and the gate's negative control.

    python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import goodprimes as gp  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 3, False)
        assert a == workloads.make_inputs(workload, 3, False)
        assert a != workloads.make_inputs(workload, 4, False)
    roots = workloads.make_inputs("certify", 3, False)["roots"]
    assert sorted(roots) == sorted(workloads.root_pool(workloads.CERTIFY_ROOTS))


def test_own_primality_matches_the_library():
    for n in list(range(1, 3000)) + [10**12 + k for k in range(200)]:
        assert workloads.is_prime_below_3e24(n) == gp.is_prime(n)


# -- negative control: the gate must fail on wrong outputs ----------------


def _no_phase(name):
    return contextlib.nullcontext()


def _tampered_scan_library():
    """The library, except that scan_odd_perfect reports an odd perfect number."""

    def scan_odd_perfect(bound):
        report = gp.scan_odd_perfect(bound)
        fake = gp.scan.CandidateRecord(945, ((3, 3), (5, 1), (7, 1)), 1890)
        return dataclasses.replace(report, counterexamples=(fake,))

    return types.SimpleNamespace(**{**vars(gp), "scan_odd_perfect": scan_odd_perfect})


def test_gate_rejects_a_tampered_scan_report():
    gate = workloads.Gate()
    inputs = workloads.make_inputs("scan", 1, True)
    workloads.run_scan(_tampered_scan_library(), inputs, gate, _no_phase)
    assert gate.failed == 1
    assert gate.messages == ["odd: report not clean"]


def test_gate_rejects_a_verifier_that_accepts_a_tamper_variant():
    lenient = types.SimpleNamespace(**{**vars(gp), "verify_certificate": lambda cert: True})
    gate = workloads.Gate()
    workloads.certify_root(lenient, 31, gate)  # depth 1: 3 field and 3 edge tampers
    assert gate.failed == 6
    assert all("accepted" in m for m in gate.messages)


def test_gate_passes_the_real_library():
    gate = workloads.Gate()
    workloads.run_scan(gp, workloads.make_inputs("scan", 1, True), gate, _no_phase)
    workloads.certify_root(gp, 31, gate)
    assert gate.failed == 0 and gate.attempted > 0
