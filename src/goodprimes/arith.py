"""Exact number-theoretic primitives on plain Python integers.

Everything here is exact at arbitrary precision: the one cyclotomic
value the package needs, Phi_3(x) = x**2 + x + 1, divisor sums of prime
powers and of factorizations given as (prime, exponent) pairs, p-adic
valuations, and primality testing.  No floats enter any computation, and
`sigma`, `valuation`, `cyclotomic_value`, `primality` and `is_prime`
refuse non-integers.  The module imports nothing from the rest of the package.

Primality is deterministic for n below ~3.3e24, which covers 64-bit inputs:
below psi_k, the least strong pseudoprime to the first k prime bases, those
k bases decide (`_MR_TIERS`).  Above that bound a strong base-2 test combined
with a strong Lucas test is used;
`primality` exposes the confidence level, `is_prime` collapses it to a
boolean.  Every sieve is bounded by `SIEVE_BOUND_LIMIT` (1e8): a larger
one raises `ResourceLimitError` before anything is allocated.
"""

import math
import operator
from functools import lru_cache

import numpy as np

SIEVE_BOUND_LIMIT = 10**8

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# (psi_k, k), ascending: n < psi_k is decided by the first k of _MR_BASES (Pomerance,
# Selfridge and Wagstaff 1980; Jaeschke 1993; Sorenson and Webster 2015 for k = 12, 13).
# No base reaches 47, so trial division by _SMALL_PRIMES leaves none that is 0 mod n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_TIERS = (
    (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4), (2_152_302_898_747, 5),
    (3_474_749_660_383, 6), (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12), (_MR_DETERMINISTIC_BOUND, 13),
)

COMPOSITE = "composite"
PRIME = "prime"
PROBABLE_PRIME = "probable_prime"


class ResourceLimitError(RuntimeError):
    """A bound exceeds the documented memory/effort limits."""


def primes_up_to(n: int) -> list[int]:
    """All primes <= n in ascending order, sieved afresh on every call.

    n above `SIEVE_BOUND_LIMIT` raises ResourceLimitError.
    """
    return np.flatnonzero(_prime_flags(n)).tolist()


def _prime_flags(n: int) -> np.ndarray:
    """Bools over 0..max(n, 1), true at the primes; the sieve behind `primes_up_to`."""
    if n > SIEVE_BOUND_LIMIT:
        raise ResourceLimitError(f"sieve bound {n} exceeds limit {SIEVE_BOUND_LIMIT}")
    sieve = np.ones(max(n, 1) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(max(n, 1)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return sieve


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n > 2
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _half_mod(x: int, n: int) -> int:
    # x/2 mod n for odd n
    x %= n
    if x & 1:
        x += n
    return (x >> 1) % n


def _strong_lucas_probable_prime(n: int) -> bool:
    # Selfridge parameter search: D = 5, -7, 9, -11, ... with (D|n) = -1.
    d_candidate = 5
    while True:
        j = _jacobi(d_candidate % n, n)
        if j == -1:
            break
        if j == 0 and abs(d_candidate) != n:
            return False
        if d_candidate == 13 and math.isqrt(n) ** 2 == n:
            return False
        d_candidate = -(d_candidate + 2) if d_candidate > 0 else -(d_candidate - 2)
    big_d = d_candidate
    p_par, q_par = 1, (1 - big_d) // 4

    idx = n + 1
    s = (idx & -idx).bit_length() - 1
    d = idx >> s

    u, v, qk = 1, p_par, q_par % n
    for bit in bin(d)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = _half_mod(p_par * u + v, n), _half_mod(big_d * u + p_par * v, n)
            qk = qk * q_par % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def primality(n: int) -> str:
    """Primality verdict with a confidence flag; n must be an integer.

    Returns "composite" (definitely not prime; also covers n < 2), "prime"
    (deterministic below ~3.3e24: n below psi_k is decided by the first k
    primes as Miller-Rabin bases, see `_MR_TIERS`), or "probable_prime"
    (strong base-2 plus strong Lucas test, no known counterexample).
    """
    return _primality(operator.index(n))


# callers refuse non-integers first: the memo would answer 7.0 from 7
@lru_cache(maxsize=1 << 16)
def _primality(n: int) -> str:
    if n < 2:
        return COMPOSITE
    if n in _SMALL_PRIME_SET:
        return PRIME
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return COMPOSITE
    for edge, k in _MR_TIERS:
        if n < edge:
            for base in _MR_BASES[:k]:
                if not _strong_probable_prime(n, base):
                    return COMPOSITE
            return PRIME
    if not _strong_probable_prime(n, 2):
        return COMPOSITE
    if not _strong_lucas_probable_prime(n):
        return COMPOSITE
    return PROBABLE_PRIME


def is_prime(n: int) -> bool:
    """True iff n is (certified or probable) prime; see `primality`."""
    return _primality(operator.index(n)) != COMPOSITE


def valuation(q: int, n: int) -> int:
    """Largest e with q**e dividing n (q prime, n >= 1, both integers)."""
    q, n = operator.index(q), operator.index(n)
    if n < 1:
        raise ValueError(f"valuation needs n >= 1, got {n}")
    if not is_prime(q):
        raise ValueError(f"valuation needs a prime q, got {q}")
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def cyclotomic_value(x: int) -> int:
    """Phi_3(x) = x**2 + x + 1, exactly (x >= 1).

    The one cyclotomic polynomial of the package: the step map takes the
    prime divisors of Phi_3(x), and Phi_3(q) divides sigma(q**(6k+2)).
    """
    x = operator.index(x)
    if x < 1:
        raise ValueError(f"cyclotomic argument must be >= 1, got {x}")
    return x * x + x + 1


def sigma_prime_power(p: int, c: int) -> int:
    """sigma(p**c) = 1 + p + ... + p**c, exactly (p >= 2, c >= 0)."""
    p, c = operator.index(p), operator.index(c)
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    return (p ** (c + 1) - 1) // (p - 1)


def sigma(n: int, pairs) -> int:
    """Divisor sum of n from its complete factorization.

    `pairs` are (prime, exponent) integers, such as `factorize(n).factors`.
    Non-integers, and pairs that are not a factorization of n (a missing
    cofactor, a composite, a repeated prime), are rejected.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pairs = [(operator.index(p), operator.index(e)) for p, e in pairs]
    product = 1
    seen = set()
    result = 1
    for p, e in pairs:
        if e < 1 or not is_prime(p):
            raise ValueError(f"bad factor {p}^{e}")
        # then p**e > n: refuse before computing it
        if e >= n.bit_length():
            raise ValueError(f"exponent of {p}^{e} too large for {n}")
        if p in seen:
            raise ValueError(f"repeated prime {p}")
        seen.add(p)
        product *= p**e
        result *= sigma_prime_power(p, e)
    if product != n:
        raise ValueError(f"factors multiply to {product}, not {n}")
    return result
