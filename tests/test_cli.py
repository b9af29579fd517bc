import json

import pytest

from goodprimes.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from goodprimes.scan import scan_cyclotomic_form


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
        capsys, "--depth", "1", "--trial-bound", "2", "--rho-cap", "1", "--max-bits", "8", "good", "13"
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


def test_sweep_inconclusive_exit(capsys):
    code, _, _ = run_cli(
        capsys, "--depth", "1", "--trial-bound", "2", "--rho-cap", "1", "--max-bits", "8", "sweep", "32"
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


def test_factor_text(capsys):
    code, out, _ = run_cli(capsys, "factor", "3783")
    assert code == EXIT_OK
    assert out.strip() == "3783 complete 3^1 13^1 97^1 1"


def test_factor_budget_exhaustion_exit(capsys):
    code, out, _ = run_cli(
        capsys, "--trial-bound", "10", "--rho-cap", "2", "--max-bits", "64", "factor",
        str(9576890767 * 9576890821),
    )
    assert code == EXIT_BUDGET


def test_factor_cache_flag(tmp_path, capsys):
    cache_file = tmp_path / "factors.cache"
    code, _, _ = run_cli(capsys, "--cache", str(cache_file), "factor", "9507")
    assert code == EXIT_OK
    assert cache_file.exists()
    assert "9507 complete 3^1 3169^1 1" in cache_file.read_text()


def test_unusable_cache_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--cache", str(tmp_path), "good", "31")
    assert code == EXIT_USAGE
    assert err.startswith("goodprimes: error: ") and err.count("\n") == 1
    assert out == ""


def test_env_overrides(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "env.cache"
    monkeypatch.setenv("GOODPRIMES_CACHE", str(cache_file))
    monkeypatch.setenv("GOODPRIMES_FORMAT", "json")
    code, out, _ = run_cli(capsys, "factor", "9507")
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "complete"
    assert cache_file.exists()


def test_scan_cyclotomic_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "scan", "cyclotomic", "10000000")
    assert code == EXIT_OK
    assert out == scan_cyclotomic_form(10**7).to_json() + "\n"


def test_usage_error_exit_code(capsys):
    assert main(["scan", "bogus", "100"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_zero_budget_flags_are_usage_errors(capsys):
    assert main(["--depth", "0", "good", "31"]) == EXIT_USAGE
    assert main(["--trial-bound", "0", "factor", "12"]) == EXIT_USAGE


def test_env_numeric_coercion(capsys, monkeypatch):
    monkeypatch.setenv("GOODPRIMES_DEPTH", "4")
    monkeypatch.setenv("GOODPRIMES_RHO_CAP", "100000")
    assert main(["good", "31"]) == EXIT_OK
    monkeypatch.setenv("GOODPRIMES_FORMAT", "bogus")
    assert main(["good", "31"]) == EXIT_USAGE


def test_factor_primality_confidence_flag(capsys):
    big_probable = 10000000000000000000000013  # prime beyond the witness bound
    code, out, _ = run_cli(capsys, "factor", str(3 * big_probable))
    assert code == EXIT_OK
    assert "[primality: probable]" in out
    code, out, _ = run_cli(capsys, "--format", "json", "factor", "3783")
    assert json.loads(out)["primality"] == "proven"
