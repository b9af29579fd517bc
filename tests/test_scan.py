import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from goodprimes import arith, scan
from goodprimes.enclosure import log_enclosure
from goodprimes.factor import SearchBudget, factorize
from goodprimes.goodness import GOOD, INCONCLUSIVE, is_good
from goodprimes.scan import (
    FORM_BOUND_LIMIT,
    SIEVE_BOUND_LIMIT,
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


@pytest.fixture(scope="module")
def sympy_sigma():
    return [0] + [int(sympy.divisor_sigma(n)) for n in range(1, 2**16 + 2)]


def test_sieve_matches_sympy_block(sympy_sigma):
    sig = sieve_sigma(20_000)
    assert list(sig[1:]) == sympy_sigma[1:20_001]


def test_sieve_matches_sympy_around_powers_of_two(sympy_sigma):
    # the even entries are filled from the odd ones, one power of two at a time
    for k in range(17):
        for bound in {2**k - 1, 2**k, 2**k + 1} - {0}:
            assert list(sieve_sigma(bound)) == sympy_sigma[: bound + 1], bound


def test_sigma_progression_105_matches_naive():
    members = range(105, 5001, 210)
    sigma = {n: sigma_naive(n) for n in members}
    for bound in [*range(1, 301), *members]:
        want = [sigma[n] for n in range(105, bound + 1, 210)]
        out = np.zeros(len(want), dtype=np.int64)
        scan._sigma_progression(out, bound, 105, 210)
        assert list(out) == want, bound


def test_sigma_progression_every_small_progression():
    for step in range(1, 13):
        for start in range(1, step + 1):
            for bound in (1, 50, 97, 144):
                members = range(start, bound + 1, step)
                out = np.zeros(len(members), dtype=np.int64)
                scan._sigma_progression(out, bound, start, step)
                assert list(out) == [sigma_naive(n) for n in members], (start, step, bound)


def test_sieve_resource_guard():
    factorize(2)  # build the trial-division blocks outside the measurement
    for run in (sieve_sigma, scan_odd_perfect, scan_105):
        tracemalloc.start()
        with pytest.raises(ResourceLimitError):
            run(10**8 + 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**16, (run.__name__, peak)  # refused before the array is allocated
        with pytest.raises(ValueError):
            run(0)


def test_sieve_self_check_runs_on_both_paths(monkeypatch):
    # negative control: a multiplicative sigma that is one too high must
    # trip the sampled cross-check of every sieve
    sigma = scan.arith.sigma
    monkeypatch.setattr(scan.arith, "sigma", lambda n, pairs: sigma(n, pairs) + 1)
    for run, bound in ((sieve_sigma, 1000), (scan_odd_perfect, 1000), (scan_105, 10**4)):
        with pytest.raises(AssertionError):
            run(bound)


def test_odd_scan_self_check_covers_even_n(monkeypatch):
    # negative control: the odd scan never stores an even n's sigma, yet
    # its sample of 1..bound must still check the value derived for it
    sigma = scan.arith.sigma
    monkeypatch.setattr(scan.arith, "sigma", lambda n, pairs: sigma(n, pairs) + (n % 2 == 0))
    with pytest.raises(AssertionError, match="n=[0-9]*[02468]$"):
        scan_odd_perfect(1000)


def test_scan_odd_perfect_small():
    report = scan_odd_perfect(10**4)
    assert report.perfect_found == (6, 28, 496, 8128)
    assert report.counterexamples == ()
    assert report.candidates_checked == 5000
    report = scan_odd_perfect(100)
    assert report.perfect_found == (6, 28)


def test_odd_scan_matches_the_full_sieve_report():
    # the odd scan derives sigma(2^a * m) from sigma(m); the full array is the
    # reference.  2 * _BLOCK * k + d ends the odd compare near a block edge,
    # and at k = 3 the compare for a = 1 (over m = 3j, bound // 6 entries) too
    edges = [2 * scan._BLOCK * k + d for k in (1, 2, 3) for d in range(-3, 4)]
    for bound in [*range(1, 301), 8127, 8128, 8129, *edges]:
        found = scan._stride_hits(sieve_sigma(bound)[1:], bound, 1, 1)
        odd, even = [v for v in found if v % 2], [v for v in found if v % 2 == 0]
        full = scan._report(scan.FORM_ODD, bound, (bound + 1) // 2, odd, even)
        assert scan_odd_perfect(bound).to_json() == full.to_json(), bound


def test_sieve_scans_at_every_small_bound():
    # bounds such as 6, 28, 105 and 315 end a stride on the bound itself
    sigma = [0] + [sigma_naive(n) for n in range(1, 301)]
    for bound in range(1, 301):
        assert list(sieve_sigma(bound)[1:]) == sigma[1 : bound + 1], bound
        odd = scan_odd_perfect(bound)
        assert odd.perfect_found == tuple(v for v in (6, 28) if v <= bound), bound
        assert odd.candidates_checked == (bound + 1) // 2
        assert scan_105(bound).candidates_checked == len(range(105, bound + 1, 210))


def test_sieve_scans_peak_memory():
    # the int32 sigma array, 4 bytes per entry (2 for the odd scan, which
    # keeps the odd n alone), plus temporaries bounded by the block: two
    # int32 ramps (the generator makes the next while the last is held) and
    # a bool mask; the 105 scan holds only its own progression, about 1/210
    # of the array
    bound = 10**6
    factorize(2)  # build the trial-division blocks outside the measurement
    for run, size, entries in (
        (sieve_sigma, 4, bound + 1),
        (scan_odd_perfect, 2, bound + 1),
        (scan_105, 4, bound // 210 + 1),
    ):
        tracemalloc.start()
        run(bound)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < size * entries + 9 * min(scan._BLOCK, entries) + 2**18, (run.__name__, peak)


def divisor_sieve(bound):
    # sigma(n) as the sum of every d | n in int64: each d <= root by a
    # strided add, each d > root by its cofactor m = n / d <= bound // (root + 1)
    sig = np.zeros(bound + 1, dtype=np.int64)
    root = math.isqrt(bound)
    for d in range(1, root + 1):
        sig[d::d] += d
    for m in range(1, bound // (root + 1) + 1):
        d = np.arange(root + 1, bound // m + 1, dtype=np.int64)
        sig[m * d] += d
    return sig


def test_sieve_matches_divisor_sieve_over_several_blocks():
    # the odd half alone spans 3.5 ramp blocks, so every d up to 3 sees
    # block boundaries in its ramp
    bound = 7 * scan._BLOCK + 11
    sig = sieve_sigma(bound)
    assert sig.dtype == np.int32
    assert np.array_equal(sig, divisor_sieve(bound))


def test_scan_stride_hits_at_block_edges():
    block = scan._BLOCK
    size = 2 * block + 5  # two whole blocks and a short tail
    planted = [0, block - 1, block, 2 * block - 1, 2 * block + 2, size - 1]
    # even hits, odd hits, and the odd scan's compare for n = 4 * 7k:
    # sigma(7k) at every 7th odd entry against 8k = 2 * (4 + 8i)
    for start, step, stride in ((2, 2, 1), (105, 210, 1), (4, 8, 7)):
        sigmas = np.zeros(stride * size, dtype=np.int32)[stride // 2 :: stride]
        for i in planted:
            sigmas[i] = 2 * (start + step * i)
        sigmas[block + 1] = 2 * (start + step * (block + 1)) + 1  # a near miss
        found = scan._stride_hits(sigmas, start + step * (size - 1), start, step)
        assert found == [start + step * i for i in planted], (start, step)


def test_sieve_scans_audit_an_odd_hit(monkeypatch):
    # plant two odd "perfect" n in the odd progressions (1 mod 2 and 105 mod
    # 210) of both sieve scans; the even compares of the odd scan, which
    # start at an even n, are left alone
    planted = [945, 1155]
    stride_hits = scan._stride_hits

    def with_planted(sigmas, bound, start, step):
        found = stride_hits(sigmas, bound, start, step)
        return sorted(found + planted) if start % 2 else found

    monkeypatch.setattr(scan, "_stride_hits", with_planted)
    for run, perfect in ((scan_odd_perfect, (6, 28, 496, 8128)), (scan_105, ())):
        report = run(10**4)
        assert report.perfect_found == perfect, run.__name__
        assert not report.clean
        assert [rec.value for rec in report.counterexamples] == planted
        assert report.counterexamples[0] == CandidateRecord(945, ((3, 3), (5, 1), (7, 1)), 1920)
        for rec in report.counterexamples:
            assert rec.factors == tuple(sorted(sympy.factorint(rec.value).items()))  # ascending
            assert rec.sigma_value == arith.sigma(rec.value, rec.factors) == sigma_naive(rec.value)


def test_sigma_fits_int32_up_to_the_sieve_limit():
    # Robin (1984): sigma(n) < e^gamma n L + 0.6483 n / L for n >= 3, with
    # L = ln ln n.  The right side is n g(L), g(L) = e^gamma L + 0.6483 / L,
    # and g grows once L^2 > 0.6483 / e^gamma; if that holds at n = 7, every
    # 7 <= n <= N has sigma(n) < N g(L(N)), and sigma(n) <= 12 below 7
    e_gamma = (Fraction(178107, 10**5), Fraction(178108, 10**5))  # 1.7810724...
    robin = Fraction(6483, 10**4)

    def lnln(n):
        lo, hi = log_enclosure(n)
        return log_enclosure(lo)[0], log_enclosure(hi)[1]

    assert lnln(7)[0] ** 2 * e_gamma[0] > robin
    lo, hi = lnln(SIEVE_BOUND_LIMIT)
    assert SIEVE_BOUND_LIMIT * (e_gamma[1] * hi + robin / lo) < Fraction(542, 100) * 10**8 < 2**31
    assert max(sigma_naive(n) for n in range(1, 7)) == 12


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
    assert not matches_squarefree_form([(5, 1), (7, 2), (11, 2), (11, 2)])  # 5 * 7^2 * 11^4
    assert not matches_squarefree_form([(5, -3), (3, 2)])  # -3 = 1 mod 4, but alpha < 1

    assert matches_cyclotomic_form([(5, 1), (3, 2), (11, 2)])
    assert matches_cyclotomic_form([(5, 3), (3, 4), (7, 8), (13, 2)])
    assert not matches_cyclotomic_form([(3, 2), (11, 2)])  # no 5 part
    assert not matches_cyclotomic_form([(5, 1), (11, 2)])  # no 3 part
    assert not matches_cyclotomic_form([(5, 1), (3, 2)])  # no q part
    assert not matches_cyclotomic_form([(5, 1), (3, 2), (11, 4)])  # 4 != 2 mod 6
    assert not matches_cyclotomic_form([(5, 1), (3, 3), (11, 2)])  # odd 3-exponent
    assert not matches_cyclotomic_form([(5, 1), (3, 2), (11, 4), (11, 2)])  # 11^6, 6 != 2 mod 6
    assert not matches_cyclotomic_form([(5, 1), (3, 2), (7, -4)])  # -4 = 2 mod 6, but below 2


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


def record_candidates(monkeypatch):
    # wrap the shared form enumerator to keep the factorization of every candidate it returns
    candidates = []
    enumerate_form = scan._enumerate_form

    def recording(*args):
        perfect, found = enumerate_form(*args)
        candidates.extend(found)
        return perfect, found

    monkeypatch.setattr(scan, "_enumerate_form", recording)
    return candidates


def test_squarefree_scan_enumerates_faithfully(monkeypatch):
    bound = 10**6
    candidates = record_candidates(monkeypatch)
    report = scan_squarefree_form(bound)
    assert report.clean
    assert all(matches_squarefree_form(c) for c in candidates)
    values = [math.prod(p**e for p, e in c) for c in candidates]
    expected = brute_form_values(bound, matches_squarefree_form)
    assert len(values) == len(set(values)) == report.candidates_checked
    assert set(values) == expected


def test_squarefree_scan_no_duplicates_and_instance():
    # the faithful-enumeration test checks every candidate to 10^6 against
    # the predicate; here spot-check the published instance 5 * 3^2 * 7^2
    n = 5 * 9 * 49
    pairs = [(3, 2), (5, 1), (7, 2)]
    assert matches_squarefree_form(pairs)
    sig = 6 * 13 * 57
    assert sig != 2 * n
    report = scan_squarefree_form(2205)
    assert report.clean and report.candidates_checked >= 1


def test_cyclotomic_scan_enumerates_faithfully(monkeypatch):
    bound = 10**6
    candidates = record_candidates(monkeypatch)
    report = scan_cyclotomic_form(bound, annotate_goodness=False)
    assert report.clean
    assert all(matches_cyclotomic_form(c) for c in candidates)
    values = [math.prod(p**e for p, e in c) for c in candidates]
    expected = brute_form_values(bound, matches_cyclotomic_form)
    assert len(values) == len(set(values)) == report.candidates_checked
    assert set(values) == expected


def test_form_scans_build_their_inputs_inside_the_form(monkeypatch):
    # the forms are conjunctions of root, per-prime and pairwise conditions,
    # so a strictly ascending pool whose every prime passes with one root, and
    # roots whose every exponent pair passes on two primes, keep each candidate
    # in the form; a smaller bound's pool is a prefix of this pool and its roots
    # a subset of these, so the limit covers every bound
    seen = []
    monkeypatch.setattr(scan, "_enumerate_form", lambda bound, pool, roots: seen.append((pool, roots)) or ([], []))
    scan_squarefree_form(FORM_BOUND_LIMIT)
    scan_cyclotomic_form(FORM_BOUND_LIMIT, annotate_goodness=False)
    for (pool, roots), matches in zip(seen, (matches_squarefree_form, matches_cyclotomic_form), strict=True):
        assert all(p < q for p, q in zip(pool, pool[1:]))
        factors, exponents = roots[0]
        assert all(matches(factors + ((q, exponents[0]),)) for q in pool)
        assert all(matches(f + ((pool[0], e), (pool[1], g))) for f, es in roots for e in es for g in es)


def test_form_scans_never_call_the_form_predicates(monkeypatch):
    def refuse(pairs):
        raise AssertionError(f"a form scan called a form predicate on {pairs}")

    monkeypatch.setattr(scan, "matches_squarefree_form", refuse)
    monkeypatch.setattr(scan, "matches_cyclotomic_form", refuse)
    assert scan_squarefree_form(10**8).clean
    assert scan_cyclotomic_form(10**8).clean


@pytest.mark.parametrize(
    "bound, pool, roots, perfect",
    [
        (10, [3], [(((2, 1),), (1,))], [6]),  # 2 * 3
        (30, [2], [(((7, 1),), (2,))], [28]),  # 7 * 2^2
        (500, [31], [(((2, 4),), (1,))], [496]),  # 2^4 * 31
    ],
)
def test_enumerator_returns_the_perfect_members_of_toy_forms(bound, pool, roots, perfect):
    assert scan._enumerate_form(bound, pool, roots)[0] == perfect


def test_form_scans_audit_a_perfect_hit(monkeypatch):
    # no real form has a perfect member, so report 2205 = 5 * 3^2 * 7^2 as one:
    # its record is re-factored in ascending prime order, sigma from arith.sigma
    enumerate_form = scan._enumerate_form
    monkeypatch.setattr(scan, "_enumerate_form", lambda *args: ([2205], enumerate_form(*args)[1]))
    for report in (scan_squarefree_form(10**4), scan_cyclotomic_form(10**4, annotate_goodness=False)):
        assert not report.clean
        assert report.counterexamples == (CandidateRecord(2205, ((3, 2), (5, 1), (7, 2)), 6 * 13 * 57),)


@pytest.mark.parametrize("bound", [44, 45, 2204, 2205])
def test_form_scans_with_empty_or_one_prime_pools(bound):
    # 44: no root; 45: squarefree pool [3]; 2204: no cyclotomic root; 2205: cyclotomic pool [7]
    for report, predicate in (
        (scan_squarefree_form(bound), matches_squarefree_form),
        (scan_cyclotomic_form(bound, annotate_goodness=False), matches_cyclotomic_form),
    ):
        assert report.clean
        assert report.candidates_checked == len(brute_form_values(bound, predicate))


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


def test_cyclotomic_scan_annotations(monkeypatch):
    # recompute every note from one is_good call per prime over the qi
    # of each candidate
    candidates = record_candidates(monkeypatch)
    for budget in (SearchBudget(), SearchBudget(trial_division_bound=100, rho_iteration_cap=10)):
        candidates.clear()
        report = scan_cyclotomic_form(10**7, budget)
        assert report.clean
        assert all(matches_cyclotomic_form(c) for c in candidates)
        prime_sets = [[p for p, _ in c if p > 5] for c in candidates]
        assert len(prime_sets) == report.candidates_checked
        distinct = sorted({q for qs in prime_sets for q in qs})
        verdicts = {q: is_good(q, budget).verdict for q in distinct if q > 7}
        assert dict(report.notes) == {
            "candidates_with_good_prime": str(sum(any(verdicts.get(q) == GOOD for q in qs) for qs in prime_sets)),
            "candidates_with_prime_at_most_157": str(sum(any(q <= 157 for q in qs) for qs in prime_sets)),
            "distinct_primes": str(len(distinct)),
            "goodness_inconclusive_primes": str(list(verdicts.values()).count(INCONCLUSIVE)),
        }, budget


@pytest.mark.parametrize("bound", [2204, 2205, 10**5, 10**7])
def test_cyclotomic_distinct_primes_are_the_pool(bound):
    # every prime 5 < q <= isqrt(bound // 45) occurs, in 5 * 3^2 * q^2
    notes = dict(scan_cyclotomic_form(bound).notes)
    pool = [q for q in arith.primes_up_to(math.isqrt(bound // 45)) if q > 5]
    assert notes["distinct_primes"] == str(len(pool))


def test_form_scan_resource_guard():
    with pytest.raises(ResourceLimitError):
        scan_squarefree_form(10**12 + 1)
    with pytest.raises(ResourceLimitError):
        scan_cyclotomic_form(10**12 + 1)


@pytest.mark.parametrize("run", [sieve_sigma, scan_odd_perfect, scan_105, scan_squarefree_form, scan_cyclotomic_form])
def test_scans_refuse_non_integer_bounds(run):
    with pytest.raises(TypeError):
        run(1000.0)


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
        assert int(sig[n]) == sigma(n, factorize(n).factors)
