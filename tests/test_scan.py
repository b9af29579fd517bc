import math

import numpy as np
import pytest
import sympy

from goodprimes import scan
from goodprimes.factor import factorize
from goodprimes.scan import (
    CandidateRecord,
    ResourceLimitError,
    ScanReport,
    matches_cyclotomic_form,
    matches_squarefree_form,
    scan_105,
    scan_cyclotomic_form,
    scan_odd_perfect,
    scan_squarefree_form,
    sieve_sigma,
)


def sigma_naive(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_sieve_small_values():
    sig = sieve_sigma(1000)
    assert sig[1] == 1
    assert sig[6] == 12
    assert sig[28] == 56
    assert sig[496] == 992
    for n in range(1, 200):
        assert int(sig[n]) == sigma_naive(n), n


def test_sieve_matches_sympy_block():
    sig = sieve_sigma(20_000)
    want = [int(sympy.divisor_sigma(n)) for n in range(1, 20_001)]
    assert list(sig[1:]) == want


def test_sieve_resource_guard():
    with pytest.raises(ResourceLimitError):
        sieve_sigma(10**8 + 1)
    with pytest.raises(ValueError):
        sieve_sigma(0)


def test_scan_odd_perfect_small():
    report = scan_odd_perfect(10**4)
    assert report.perfect_found == (6, 28, 496, 8128)
    assert report.counterexamples == ()
    assert report.candidates_checked == 5000
    report = scan_odd_perfect(100)
    assert report.perfect_found == (6, 28)


def test_scan_105():
    report = scan_105(10**6)
    assert report.clean
    assert report.candidates_checked == len(range(105, 10**6 + 1, 210))
    small = scan_105(10**3)
    assert small.clean and small.candidates_checked == 5
    # 105 itself: sigma = 192 != 210
    assert int(sieve_sigma(105)[105]) == 192


def test_form_predicates():
    assert matches_squarefree_form([(5, 1), (3, 2), (7, 2)])
    assert matches_squarefree_form([(5, 5), (3, 4), (11, 4)])
    assert not matches_squarefree_form([(5, 2), (3, 2)])  # alpha != 1 mod 4
    assert not matches_squarefree_form([(5, 1)])  # no kernel
    assert not matches_squarefree_form([(5, 1), (3, 2), (7, 4)])  # mixed exponents
    assert not matches_squarefree_form([(5, 1), (2, 2)])  # even kernel
    assert not matches_squarefree_form([(5, 1), (3, 3)])  # odd exponent

    assert matches_cyclotomic_form([(5, 1), (3, 2), (11, 2)])
    assert matches_cyclotomic_form([(5, 3), (3, 4), (7, 8), (13, 2)])
    assert not matches_cyclotomic_form([(3, 2), (11, 2)])  # no 5 part
    assert not matches_cyclotomic_form([(5, 1), (11, 2)])  # no 3 part
    assert not matches_cyclotomic_form([(5, 1), (3, 2)])  # no q part
    assert not matches_cyclotomic_form([(5, 1), (3, 2), (11, 4)])  # 4 != 2 mod 6
    assert not matches_cyclotomic_form([(5, 1), (3, 3), (11, 2)])  # odd 3-exponent


def spf_factor_pairs(n, spf):
    counts = {}
    while n > 1:
        p = spf[n]
        counts[p] = counts.get(p, 0) + 1
        n //= p
    return sorted(counts.items())


def brute_form_values(bound, predicate):
    # independent enumeration: factor every odd multiple of 5 up to bound
    # with a smallest-prime-factor sieve and filter by the form predicate
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for multiple in range(p * p, bound + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    values = set()
    for n in range(45, bound + 1, 10):  # odd multiples of 5
        if predicate(spf_factor_pairs(n, spf)):
            values.add(n)
    return values


def record_candidates(monkeypatch, name):
    # wrap the scan's form predicate to record the value of every candidate
    values = []
    predicate = getattr(scan, name)

    def recording(pairs):
        values.append(math.prod(p**e for p, e in pairs))
        return predicate(pairs)

    monkeypatch.setattr(scan, name, recording)
    return values


def test_squarefree_scan_enumerates_faithfully(monkeypatch):
    bound = 10**6
    values = record_candidates(monkeypatch, "matches_squarefree_form")
    report = scan_squarefree_form(bound)
    assert report.clean
    expected = brute_form_values(bound, matches_squarefree_form)
    assert len(values) == len(set(values)) == report.candidates_checked
    assert set(values) == expected


def test_squarefree_scan_no_duplicates_and_instance():
    # re-run the enumeration collecting values through the counterexample
    # audit path: every candidate re-checked by the in-scan predicate already;
    # here spot-check the published instance 5 * 3^2 * 7^2
    n = 5 * 9 * 49
    pairs = [(3, 2), (5, 1), (7, 2)]
    assert matches_squarefree_form(pairs)
    sig = 6 * 13 * 57
    assert sig != 2 * n
    report = scan_squarefree_form(2205)
    assert report.clean and report.candidates_checked >= 1


def test_cyclotomic_scan_enumerates_faithfully(monkeypatch):
    bound = 10**6
    values = record_candidates(monkeypatch, "matches_cyclotomic_form")
    report = scan_cyclotomic_form(bound, annotate_goodness=False)
    assert report.clean
    expected = brute_form_values(bound, matches_cyclotomic_form)
    assert len(values) == len(set(values)) == report.candidates_checked
    assert set(values) == expected


def _cyclo_count(bound):
    return scan_cyclotomic_form(bound, annotate_goodness=False).candidates_checked


def test_cyclotomic_scan_exponent_filter():
    # exponent 8 = 6 + 2 is admitted: exactly one new candidate (5 * 3^2 * 7^8)
    # enters when the bound reaches 45 * 7^8...
    n8 = 5 * 9 * 7**8
    assert _cyclo_count(n8) - _cyclo_count(n8 - 1) == 1
    # ... while exponent 4 is rejected: nothing enters at 45 * 7^4
    n4 = 5 * 9 * 7**4
    assert _cyclo_count(n4) - _cyclo_count(n4 - 1) == 0


def test_cyclotomic_scan_annotations():
    report = scan_cyclotomic_form(10**7)
    notes = dict(report.notes)
    assert int(notes["candidates_with_good_prime"]) > 0
    assert int(notes["candidates_with_prime_at_most_157"]) > 0
    assert int(notes["distinct_primes"]) > 0
    assert report.clean


def test_form_scan_resource_guard():
    with pytest.raises(ResourceLimitError):
        scan_squarefree_form(10**12 + 1)
    with pytest.raises(ResourceLimitError):
        scan_cyclotomic_form(10**12 + 1)


def test_report_roundtrip():
    report = scan_odd_perfect(10**4)
    text = report.to_json()
    back = ScanReport.from_json(text)
    assert back.to_json() == text
    assert back.perfect_found == report.perfect_found


def test_candidate_record_audit_fields():
    rec = CandidateRecord(28, ((2, 2), (7, 1)), 56)
    data = rec.to_dict()
    assert data["value"] == "28"
    assert data["sigma"] == "56"
    assert CandidateRecord.from_dict(data) == rec


def test_sieve_spot_check_against_factorizer(rng):
    sig = sieve_sigma(10**5)
    from goodprimes.arith import sigma

    for _ in range(1000):
        n = rng.randint(2, 10**5)
        assert int(sig[n]) == sigma(n, factorize(n))
