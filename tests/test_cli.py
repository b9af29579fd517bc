import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from goodprimes import factor
from goodprimes.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, _build_parser, main
from goodprimes.factor import SearchBudget
from goodprimes.goodness import goodness_sweep
from goodprimes.scan import scan_cyclotomic_form

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_good_31(capsys):
    code, out, _ = run_cli(capsys, "good", "31")
    assert code == EXIT_OK
    assert out.strip() == "good depth=1"


def test_good_rejects_7(capsys):
    code, _, err = run_cli(capsys, "good", "7")
    assert code == EXIT_USAGE
    assert "not a prime greater than 7" in err


def test_good_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "good", "15")
    assert code == EXIT_USAGE


def test_good_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "--depth", "1", "--trial-bound", "2", "--rho-cap", "1", "good", "13"
    )
    assert code == EXIT_BUDGET
    assert "inconclusive" in out


def test_good_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "good", "13")
    record = json.loads(out)
    assert record == {"prime": "13", "verdict": "good", "depth": "6"}
    assert code == EXIT_OK


def test_cert_verify_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert31.json"
    code, _, _ = run_cli(capsys, "cert", "31", "-o", str(cert_file))
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "verify", str(cert_file))
    assert code == EXIT_OK
    assert "valid" in out


def test_verify_detects_tampering(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "cert", "31", "-o", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["path"][0][1] = "994"  # forge the cyclotomic value
    cert_file.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(cert_file))
    assert code == EXIT_FAIL
    assert "INVALID" in out


def test_verify_unreadable_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == EXIT_USAGE


def test_verify_rejects_non_ascii_digits(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "cert", "31", "-o", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["root"] = "٣١"  # 31 in Arabic-Indic digits
    cert_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(cert_file))
    assert code == EXIT_USAGE
    assert "not a decimal string" in err and out == ""


def test_verify_rejects_json_number(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "cert", "31", "-o", str(cert_file))
    data = json.loads(cert_file.read_text())
    data["root"] = 31
    cert_file.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", str(cert_file))
    assert code == EXIT_USAGE
    assert "not a decimal string" in err and out == ""


def test_verify_stdin_refuses_unknown_keys(tmp_path, capsys, monkeypatch):
    cert_file = tmp_path / "cert.json"
    run_cli(capsys, "cert", "31", "-o", str(cert_file))
    text = cert_file.read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli(capsys, "verify", "-")[:2] == (EXIT_OK, "valid: 31 -> 331 (depth 1)\n")
    data = json.loads(text)
    for extra in ({"comment": "x"}, {"root ": "31"}):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({**data, **extra})))
        code, out, err = run_cli(capsys, "verify", "-")
        assert code == EXIT_USAGE and out == "" and "unknown certificate keys" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("[]"))
    assert run_cli(capsys, "verify", "-")[0] == EXIT_USAGE


@pytest.mark.parametrize("key", ["root", "path", "terminal", "terminal_residue"])
def test_verify_stdin_refuses_missing_keys(key, capsys, monkeypatch):
    data = json.loads(run_cli(capsys, "cert", "31")[1])
    del data[key]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
    code, out, err = run_cli(capsys, "verify", "-")
    assert code == EXIT_USAGE and out == "" and f"missing certificate keys ['{key}']" in err


def test_verify_stdin_refuses_a_path_of_the_wrong_shape(capsys, monkeypatch):
    # both used to parse, as the edge (7, 8, 9) and as the digits of "123", and fail as INVALID
    data = json.loads(run_cli(capsys, "cert", "31")[1])
    for path in (["789"], {"123": "1"}):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({**data, "path": path})))
        code, out, err = run_cli(capsys, "verify", "-")
        assert code == EXIT_USAGE and out == "" and "certificate path" in err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"path":' * 100_000, '{"root":"31","path":' + "[" * 100_000],
    ids=["arrays", "objects", "in-a-certificate"],
)
def test_verify_stdin_refuses_deeply_nested_json(text, capsys, monkeypatch):
    # json's parser gives up on this depth with RecursionError, which was a traceback and exit 1 (INVALID)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "verify", "-")
    assert code == EXIT_USAGE and out == "" and "nested too deeply" in err


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "cert", "31", "-o", str(tmp_path / "missing" / "cert.json"))
    assert code == EXIT_USAGE
    assert err.startswith("goodprimes: error: ") and err.count("\n") == 1
    assert out == ""


def test_sweep_text(capsys):
    code, out, _ = run_cli(capsys, "sweep", "32")
    assert code == EXIT_OK
    assert "31: good depth=1" in out
    assert "7 primes below 32: 7 good, 0 not_good, 0 inconclusive" in out


def test_sweep_default_limit_is_160(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "sweep")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["limit"] == "160"
    assert summary["primes"] == "33"
    assert summary["good"] == "33"


def test_sweep_3000_json_is_pinned(capsys):
    # the canonical output contract: any change to a verdict, depth or certificate moves it
    code, out, _ = run_cli(capsys, "--format", "json", "sweep", "3000")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd5f5f4c182040613ca82c1543d5e0f5971572b349720308ea2a075a7e1abe53"
    )


def test_sweep_inconclusive_exit(capsys):
    code, _, _ = run_cli(
        capsys, "--depth", "1", "--trial-bound", "2", "--rho-cap", "1", "sweep", "32"
    )
    assert code == EXIT_BUDGET


def test_scan_odd_text(capsys):
    code, out, _ = run_cli(capsys, "scan", "odd", "1000000")
    assert code == EXIT_OK
    assert "6 28 496 8128" in out
    assert "counterexamples: none" in out


def test_scan_resource_exit(capsys):
    code, _, err = run_cli(capsys, "scan", "odd", str(10**9))
    assert code == EXIT_BUDGET
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--trial-bound", "100000001", "factor", "1000000000039"),
        ("sweep", "100000000000"),
        ("scan", "105", "100000001"),
        ("scan", "odd", "100000001"),
    ],
)
def test_sieve_resource_exit_for_every_command(capsys, argv):
    # the sieve behind trial division or a sweep is refused before numpy
    # allocates it, with one line and no traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_scan_json_roundtrips_through_report(capsys):
    from goodprimes.scan import ScanReport

    code, out, _ = run_cli(capsys, "--format", "json", "scan", "squarefree", "100000")
    assert code == EXIT_OK
    report = ScanReport.from_json(out)
    assert report.to_json() == out.strip()


def test_oracle_text(capsys):
    code, out, _ = run_cli(capsys, "oracle", "5", "2", "7", "3")
    assert code == EXIT_OK
    assert "holds" in out and "d=4" in out and "a=2" in out


def test_oracle_bad_args(capsys):
    code, _, err = run_cli(capsys, "oracle", "4", "1", "7", "3")
    assert code == EXIT_USAGE


def test_oracle_unfactored_group_order_exit(capsys):
    # q - 1 has a 600-bit part over the rho ceiling: budget, not usage
    q = 2 * 382 * sympy.nextprime(2**299) * sympy.nextprime(2**300) + 1
    code, _, err = run_cli(capsys, "oracle", str(q), "1", "3", "2")
    assert code == EXIT_BUDGET
    assert err.startswith("resource limit: cannot certify order")


def test_oracle_honours_the_budget_flags(capsys):
    # q - 1 = 2 * 1073741827 * 2147501669: out of reach of trial division
    # to 2 and one rho iteration, within reach of the default budget
    q = 4611724731115218527
    budget = ["--rho-cap", "1", "--trial-bound", "2"]
    code, _, err = run_cli(capsys, *budget, "oracle", str(q), "1", "3", "2")
    assert code == EXIT_BUDGET
    assert err.startswith("resource limit: cannot certify order")
    code, out, _ = run_cli(capsys, "oracle", str(q), "1", "3", "2")
    assert code == EXIT_OK
    assert "d=2305862365557609263" in out


def test_factor_text(capsys):
    code, out, _ = run_cli(capsys, "factor", "3783")
    assert code == EXIT_OK
    assert out.strip() == "3783 complete 3^1 13^1 97^1 1"


def test_factor_budget_exhaustion_exit(capsys):
    code, out, _ = run_cli(
        capsys, "--trial-bound", "10", "--rho-cap", "2", "factor",
        str(9576890767 * 9576890821),
    )
    assert code == EXIT_BUDGET


def test_factor_over_the_rho_ceiling_is_exhausted(capsys, monkeypatch):
    # a 513-bit semiprime is left whole, without a single rho call
    calls = []
    monkeypatch.setattr(factor, "_rho_split", lambda n, cap: calls.append(n))
    wide = sympy.nextprime(2**256) * sympy.nextprime(2**256 + 2**128)
    code, out, _ = run_cli(capsys, "--format", "json", "factor", str(wide))
    assert code == EXIT_BUDGET
    record = json.loads(out)
    assert (record["status"], record["factors"], record["cofactor"]) == ("exhausted", [], str(wide))
    assert calls == []


def test_cache_flag_is_usage_error():
    assert main(["--cache", "x", "factor", "12"]) == EXIT_USAGE


def test_max_bits_flag_is_usage_error():
    # the rho ceiling is fixed at 512 bits; no flag sets it
    assert main(["--max-bits", "64", "factor", "12"]) == EXIT_USAGE


def test_environment_does_not_configure_the_cli(capsys, monkeypatch):
    # the four flags are the only settings; the CLI reads no environment variable
    monkeypatch.setenv("GOODPRIMES_FORMAT", "json")
    code, out, _ = run_cli(capsys, "good", "31")
    assert code == EXIT_OK
    assert out == "good depth=1\n"


def test_fresh_process_sweep_matches_warm_library():
    # a run in a new interpreter must print what this process computes
    # after earlier calls have warmed every module-level memo
    goodness_sweep(200)
    scan_cyclotomic_form(10**7)
    warm = goodness_sweep(400).to_json_lines()
    # verdicts the default budget proved good must not carry over to a
    # starved one: its scan finds inconclusive primes
    starved = scan_cyclotomic_form(10**7, SearchBudget(trial_division_bound=100, rho_iteration_cap=10))
    assert int(dict(starved.notes)["goodness_inconclusive_primes"]) > 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv, expected in (
        (["sweep", "400"], warm),
        (["--trial-bound", "100", "--rho-cap", "10", "scan", "cyclotomic", "10000000"], starved.to_json() + "\n"),
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "goodprimes", "--format", "json", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert fresh.returncode == EXIT_OK, fresh.stderr
        assert fresh.stdout == expected


def test_scan_cyclotomic_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "scan", "cyclotomic", "10000000")
    assert code == EXIT_OK
    assert out == scan_cyclotomic_form(10**7).to_json() + "\n"


def test_usage_error_exit_code(capsys):
    assert main(["scan", "bogus", "100"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE
    assert main(["--format", "yaml", "good", "31"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command",
    [
        "scan odd 0",
        "scan 105 0",
        "scan squarefree 0",
        "scan cyclotomic 0",
        "sweep 5",
        "factor 1",
        "good 7",
        "cert 15",
        "oracle 4 1 7 3",
        "--depth 0 good 31",
    ],
)
def test_out_of_domain_argument_is_usage_error(capsys, command):
    # the library owns each argument rule; the front end only reports it
    code, out, err = run_cli(capsys, *command.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("goodprimes: error: ") and err.count("\n") == 1


def test_readme_cli_examples_parse():
    readme = (ROOT / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("goodprimes ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # exits on a stale example


def test_zero_budget_flags_are_usage_errors(capsys):
    assert main(["--depth", "0", "good", "31"]) == EXIT_USAGE
    assert main(["--trial-bound", "0", "factor", "12"]) == EXIT_USAGE


def test_factor_primality_confidence_flag(capsys):
    big_probable = 10000000000000000000000013  # prime beyond the witness bound
    code, out, _ = run_cli(capsys, "factor", str(3 * big_probable))
    assert code == EXIT_OK
    assert "[primality: probable]" in out
    code, out, _ = run_cli(capsys, "--format", "json", "factor", "3783")
    assert json.loads(out)["primality"] == "proven"
