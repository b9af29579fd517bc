import math

import pytest
import sympy

from goodprimes import arith
from goodprimes.arith import (
    cyclotomic_value,
    is_prime,
    multiplicative_order,
    order_valuation,
    primality,
    primes_up_to,
    sigma,
    sigma_prime_power,
    valuation,
)

# ---- independent oracles ----------------------------------------------------


def sigma_naive(n):
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def order_naive(p, q):
    x = p % q
    d = 1
    while x != 1:
        x = x * p % q
        d += 1
    return d


def valuation_naive(q, n):
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def cyclotomic_recursive(n, x):
    # Phi_n(x) = (x^n - 1) / prod of Phi_d(x) over proper divisors d
    num = x**n - 1
    for d in range(1, n):
        if n % d == 0:
            num //= cyclotomic_recursive(d, x)
    return num


# ---- primes -----------------------------------------------------------------


def test_primes_up_to_matches_sympy():
    assert primes_up_to(200) == list(sympy.primerange(2, 201))
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_returns_a_fresh_list(monkeypatch):
    # start from an empty sieve so the call below is the largest bound seen
    monkeypatch.setattr(arith, "_prime_list", [])
    monkeypatch.setattr(arith, "_prime_list_bound", 0)
    primes_up_to(1000).append(4)
    assert primes_up_to(1000) == list(sympy.primerange(2, 1001))


def test_is_prime_small_range_exhaustive():
    for n in range(200_000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_known_values():
    assert is_prime(3348577)
    assert is_prime(3737657091169)
    assert not is_prime(1)
    assert not is_prime(0)
    # strong pseudoprimes to base 2 must be caught
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633):
        assert not is_prime(n), n


def test_is_prime_random_big(rng):
    for bits in (64, 80, 100, 128):
        for _ in range(25):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n


def test_primality_confidence_levels():
    assert primality(97) == "prime"
    assert primality(3348577) == "prime"
    assert primality(91) == "composite"
    # beyond the deterministic witness bound the flag weakens
    p_big = sympy.nextprime(10**25)
    assert primality(p_big) == "probable_prime"
    assert is_prime(p_big)
    assert primality(p_big + 2) in ("composite", "probable_prime")


def test_primality_agrees_with_sympy_around_deterministic_bound(rng):
    for _ in range(20):
        n = rng.randrange(10**24, 10**26) | 1
        assert is_prime(n) == sympy.isprime(n), n


# ---- valuation --------------------------------------------------------------


def test_valuation_examples():
    assert valuation(3, 9507) == 1
    assert valuation(5, 7) == 0
    assert valuation(2, 2400) == 5


def test_valuation_random_consistency(rng):
    primes = primes_up_to(100)
    for _ in range(10_000):
        q = rng.choice(primes)
        n = rng.randint(1, 10**12)
        e = valuation(q, n)
        assert n % q**e == 0
        assert n % q ** (e + 1) != 0


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(4, 10)
    with pytest.raises(ValueError):
        valuation(3, 0)


# ---- cyclotomic values ------------------------------------------------------


def test_cyclotomic_fixed_values():
    assert cyclotomic_value(3, 3) == 13
    assert cyclotomic_value(3, 5) == 31
    assert cyclotomic_value(2, 5) == 6
    assert cyclotomic_value(3, 1) == 3
    assert cyclotomic_value(5, 2) == 31
    assert cyclotomic_value(5, 3) == 121  # 11^2; at x=3 only the index-3 value is 13
    assert cyclotomic_value(1, 10) == 9


def test_cyclotomic_matches_recursive_oracle():
    for n in range(1, 31):
        for x in range(2, 12):
            assert cyclotomic_value(n, x) == cyclotomic_recursive(n, x), (n, x)


def test_cyclotomic_at_one():
    # prime power index gives the prime, mixed index gives 1
    assert cyclotomic_value(7, 1) == 7
    assert cyclotomic_value(9, 1) == 3
    assert cyclotomic_value(8, 1) == 2
    assert cyclotomic_value(6, 1) == 1
    assert cyclotomic_value(15, 1) == 1
    assert cyclotomic_value(1, 1) == 0


def test_cyclotomic_prime_index_closed_form():
    for p in (2, 3, 5, 7, 11):
        for x in range(2, 50):
            assert cyclotomic_value(p, x) == (x**p - 1) // (x - 1)


def test_cyclotomic_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic_value(0, 5)
    with pytest.raises(ValueError):
        cyclotomic_value(3, 0)


# ---- divisor sums -----------------------------------------------------------


def test_sigma_prime_power_examples():
    assert sigma_prime_power(3, 2) == 13
    assert sigma_prime_power(11, 0) == 1
    assert sigma_prime_power(7, 3) == 400


def test_sigma_prime_power_identity():
    # sigma(p^c) * (p - 1) == p^(c+1) - 1
    for p in primes_up_to(1000):
        for c in range(51):
            assert sigma_prime_power(p, c) * (p - 1) == p ** (c + 1) - 1


def test_sigma_examples():
    assert sigma(6, [(2, 1), (3, 1)]) == 12
    assert sigma(1, []) == 1
    assert sigma(496, [(2, 4), (31, 1)]) == 992


def test_sigma_matches_naive(rng):
    for _ in range(300):
        n = rng.randint(2, 10**6)
        assert sigma(n, sympy.factorint(n).items()) == sigma_naive(n)


def test_sigma_rejects_incomplete_or_wrong():
    with pytest.raises(ValueError):
        sigma(12, [(2, 2)])  # product mismatch
    with pytest.raises(ValueError):
        sigma(12, [(4, 1), (3, 1)])  # not prime
    from goodprimes.factor import SearchBudget, factorize

    partial = factorize(10**19 + 51, SearchBudget(trial_division_bound=2, rho_iteration_cap=1))
    if not partial.complete:
        with pytest.raises(ValueError):
            sigma(partial.target, partial)


# ---- multiplicative order ---------------------------------------------------


def test_order_examples():
    assert multiplicative_order(11, 5) == 1
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(2, 7) == 3


def test_order_valuation_examples():
    assert order_valuation(7, 5) == 2  # 7^4 - 1 = 2400 = 2^5 * 3 * 5^2
    assert order_valuation(2, 7) == 1  # 2^3 - 1 = 7
    assert order_valuation(11, 5) == 1  # 11 - 1 = 10


def test_order_properties_exhaustive_small():
    primes = primes_up_to(199)
    for q in primes:
        if q == 2:
            continue
        for p in primes:
            if p == q:
                continue
            d = multiplicative_order(p, q)
            assert (q - 1) % d == 0
            assert d == order_naive(p, q)
            a = order_valuation(p, q)
            assert a >= 1
            # direct exponentiation check of q^a || p^d - 1
            assert valuation_naive(q, p**d - 1) == a


def test_order_rejects_bad_input():
    with pytest.raises(ValueError):
        multiplicative_order(5, 5)
    with pytest.raises(ValueError):
        multiplicative_order(4, 7)
    with pytest.raises(ValueError):
        multiplicative_order(3, 2)
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)
