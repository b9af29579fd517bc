import math
import time
import warnings

import pytest
import sympy

from goodprimes.arith import primes_up_to
from goodprimes.factor import (
    DEFAULT_BUDGET,
    FactorCache,
    Factorization,
    PrimePower,
    SearchBudget,
    factorize,
)


def spf_table(limit):
    # smallest-prime-factor sieve: the trial-division oracle for all n < limit
    spf = list(range(limit))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def factor_by_spf(n, spf):
    counts = {}
    while n > 1:
        p = spf[n]
        counts[p] = counts.get(p, 0) + 1
        n //= p
    return sorted(counts.items())


def test_examples():
    assert factorize(3783).pairs() == [(3, 1), (13, 1), (97, 1)]
    assert factorize(32943).pairs() == [(3, 1), (79, 1), (139, 1)]
    assert factorize(4).pairs() == [(2, 2)]
    assert factorize(4).complete


def test_agreement_with_trial_division_oracle():
    limit = 10**6
    spf = spf_table(limit)
    for n in range(2, limit):
        result = factorize(n)
        assert result.complete, n
        assert result.pairs() == factor_by_spf(n, spf), n


def test_reconstruction_random(rng):
    for _ in range(10_000):
        n = rng.randint(2, 10**12)
        result = factorize(n)
        assert result.complete, n
        product = 1
        for p, e in result.pairs():
            product *= p**e
        assert product == n
        result.check()


def test_determinism():
    budget = SearchBudget(trial_division_bound=100, rho_iteration_cap=10**6)
    n = 10**16 + 61
    a = factorize(n, budget)
    b = factorize(n, budget)
    assert a == b
    assert a.to_line() == b.to_line()


def test_known_factors_with_small_trial_bound():
    small = SearchBudget(trial_division_bound=1000, rho_iteration_cap=10**6)
    found = factorize(11212971273507, small).prime_divisors
    assert found >= {3, 3737657091169}
    big = 3737657091169**2 + 3737657091169 + 1
    found = factorize(big, SearchBudget(trial_division_bound=200, rho_iteration_cap=1)).prime_divisors
    assert 181 in found
    assert factorize(9).prime_divisors == frozenset({3})


def test_partial_results_respect_budget(tiny_budget):
    # a semiprime of two 10-digit primes: unreachable with 2 rho iterations
    p, q = 9576890767, 9576890821
    result = factorize(p * q, tiny_budget)
    assert not result.complete
    assert result.status in ("partial", "exhausted")
    assert result.cofactor == p * q
    result.check()


def test_bit_cap_forces_partial():
    n = (2**127 - 1) * (2**131 - 1)  # both parts composite-free? no: 2^127-1 prime, 2^131-1 composite
    budget = SearchBudget(trial_division_bound=10**4, rho_iteration_cap=10**4, max_candidate_bits=64)
    result = factorize(n, budget)
    assert not result.complete
    assert result.status == "partial"
    result.check()


def test_monotonicity_in_budget():
    n = 2 * 3 * 10_000_019 * 10_000_079
    found = set()
    for trial_bound in (10, 10**3, 10**5, 2 * 10**7):
        budget = SearchBudget(trial_division_bound=trial_bound, rho_iteration_cap=5)
        now = factorize(n, budget).prime_divisors
        assert found <= now, trial_bound
        found = now
    for cap in (1, 10**2, 10**6):
        budget = SearchBudget(trial_division_bound=10, rho_iteration_cap=cap)
        now = factorize(n, budget).prime_divisors
        assert found & now <= now  # no loss against itself
    assert factorize(n, SearchBudget()).prime_divisors == {2, 3, 10_000_019, 10_000_079}


def test_factorize_matches_sympy_spot(rng):
    for _ in range(50):
        n = rng.randint(10**12, 10**15)
        assert dict(factorize(n).pairs()) == sympy.factorint(n), n


def test_rejects_small_n():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(trial_division_bound=0)
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)


def test_factorization_check_catches_corruption():
    good = factorize(3783)
    bad = Factorization(good.target, good.factors, 2, "partial")
    with pytest.raises(ValueError):
        bad.check()
    bad = Factorization(3784, good.factors, 1, "complete")
    with pytest.raises(ValueError):
        bad.check()
    bad = Factorization(3783, (PrimePower(3, 1), PrimePower(1261, 1)), 1, "complete")
    with pytest.raises(ValueError):
        bad.check()


# ---- cache ------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "factors.cache"
    cache = FactorCache(path)
    record = factorize(9507)
    cache.put(record)
    assert cache.get(9507) == record
    reloaded = FactorCache(path)
    assert reloaded.get(9507) == record
    assert reloaded.get(12345) is None


def test_cache_monotone_upgrade(tmp_path):
    path = tmp_path / "factors.cache"
    cache = FactorCache(path)
    n = 9576890767 * 9576890821
    partial = factorize(n, SearchBudget(trial_division_bound=10, rho_iteration_cap=2))
    assert not partial.complete
    cache.put(partial)
    complete = factorize(n, SearchBudget(trial_division_bound=10, rho_iteration_cap=10**7))
    assert complete.complete
    cache.put(complete)
    assert cache.get(n) == complete
    # a later partial must never displace the complete entry
    cache.put(partial)
    assert cache.get(n) == complete
    reloaded = FactorCache(path)
    assert reloaded.get(n) == complete


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "factors.cache"
    good = factorize(3783)
    path.write_text(
        "not a record at all\n"
        "12 complete 2^2 5^1 1\n"  # product mismatch
        + good.to_line()
        + "\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = FactorCache(path)
    assert len(caught) == 2
    assert cache.get(3783) == good
    assert len(cache) == 1


def test_cache_skips_huge_exponent_promptly(tmp_path):
    # 5^(10^12) would need about 290 GB to compute; the line must be
    # refused from its exponent alone, with a warning that does not print it
    path = tmp_path / "factors.cache"
    good = factorize(3783)
    path.write_text("10 complete 5^1000000000000 1\n" + good.to_line() + "\n")
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cache = FactorCache(path)
    assert time.perf_counter() - start < 5
    assert len(caught) == 1
    assert "too large" in str(caught[0].message)
    assert cache.get(3783) == good
    assert len(cache) == 1


def test_cache_used_by_factorize(tmp_path):
    path = tmp_path / "factors.cache"
    cache = FactorCache(path)
    record = factorize(32943, cache=cache)
    assert cache.get(32943) == record
    again = factorize(32943, cache=cache)
    assert again == record


def test_cached_record_stays_with_its_cache(tmp_path, tiny_budget):
    # a complete record served from a cache must not change what a later
    # call without that cache computes under the same budget
    n = 1000000007 * 998244353
    cache = FactorCache(tmp_path / "factors.cache")
    cache.put(factorize(n))
    assert factorize(n, tiny_budget, cache).complete
    assert factorize(n, tiny_budget).status == "exhausted"
