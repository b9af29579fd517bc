"""Exact number-theoretic primitives on plain Python integers.

Everything here is exact at arbitrary precision: cyclotomic values,
divisor sums of prime powers, multiplicative orders, p-adic valuations,
and primality testing.  No floats enter any computation.

Primality is deterministic (fixed strong-pseudoprime witness set) for
n below ~3.3e24, which comfortably covers 64-bit inputs.  Above that
bound a strong base-2 test combined with a strong Lucas test is used;
`primality` exposes the confidence level, `is_prime` collapses it to a
boolean.
"""

import bisect
import math
from functools import lru_cache

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

# First 13 primes are a proven-sufficient witness set below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

COMPOSITE = "composite"
PRIME = "prime"
PROBABLE_PRIME = "probable_prime"

_prime_list: list[int] = []
_prime_list_bound = 0


def primes_up_to(n: int) -> list[int]:
    """All primes <= n in ascending order, as a fresh list (the sieve is cached, grow-only)."""
    global _prime_list, _prime_list_bound
    if n < 2:
        return []
    if n > _prime_list_bound:
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _prime_list = [int(p) for p in np.nonzero(sieve)[0]]
        _prime_list_bound = n
    return _prime_list[: bisect.bisect_right(_prime_list, n)]


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


@lru_cache(maxsize=1 << 16)
def primality(n: int) -> str:
    """Primality verdict with a confidence flag.

    Returns "composite" (definitely not prime; also covers n < 2),
    "prime" (deterministic, n below ~3.3e24), or "probable_prime"
    (strong base-2 plus strong Lucas test, no known counterexample).
    """
    if n < 2:
        return COMPOSITE
    if n in _SMALL_PRIME_SET:
        return PRIME
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return COMPOSITE
    if n < _MR_DETERMINISTIC_BOUND:
        for base in _MR_BASES:
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
    return primality(n) != COMPOSITE


def valuation(q: int, n: int) -> int:
    """Largest e with q**e dividing n (q prime, n >= 1)."""
    if n < 1:
        raise ValueError(f"valuation needs n >= 1, got {n}")
    if not is_prime(q):
        raise ValueError(f"valuation needs a prime q, got {q}")
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def _distinct_prime_factors(n: int) -> list[int]:
    # plain trial division; used for cyclotomic indices and similar small n
    out = []
    for p in primes_up_to(math.isqrt(n)):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def cyclotomic_value(n: int, x: int) -> int:
    """Value of the n-th cyclotomic polynomial at x (n >= 1, x >= 1).

    Computed exactly by the Moebius product over the divisors of n,
    so any index works, not just primes.  At x = 1 the classical
    closed form applies: 0 for n = 1, p for n a power of the prime p,
    and 1 otherwise.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if x < 1:
        raise ValueError(f"cyclotomic argument must be >= 1, got {x}")
    if n == 1:
        return x - 1
    primes = _distinct_prime_factors(n)
    if x == 1:
        return primes[0] if len(primes) == 1 else 1
    num, den = 1, 1
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                bits += 1
        term = x ** (n // d) - 1
        if bits & 1:
            den *= term
        else:
            num *= term
    if num % den:
        raise AssertionError(f"cyclotomic division not exact for n={n}, x={x}")
    return num // den


def sigma_prime_power(p: int, c: int) -> int:
    """sigma(p**c) = 1 + p + ... + p**c, exactly (p >= 2, c >= 0)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if c < 0:
        raise ValueError(f"need c >= 0, got {c}")
    return (p ** (c + 1) - 1) // (p - 1)


def sigma(n: int, factorization) -> int:
    """Divisor sum of n from a complete factorization.

    `factorization` is either a factor.Factorization or an iterable of
    (prime, exponent) pairs.  Incomplete or inconsistent factorizations
    are rejected.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if hasattr(factorization, "factors"):
        if not factorization.complete:
            raise ValueError(f"factorization of {n} is {factorization.status}, not complete")
        if factorization.target != n:
            raise ValueError(f"factorization targets {factorization.target}, not {n}")
        pairs = [(pp.prime, pp.exponent) for pp in factorization.factors]
    else:
        pairs = [(int(p), int(e)) for p, e in factorization]
    product = 1
    seen = set()
    result = 1
    for p, e in pairs:
        if e < 1 or not is_prime(p):
            raise ValueError(f"bad factor {p}^{e}")
        if p in seen:
            raise ValueError(f"repeated prime {p}")
        seen.add(p)
        product *= p**e
        result *= sigma_prime_power(p, e)
    if product != n:
        raise ValueError(f"factors multiply to {product}, not {n}")
    return result


def multiplicative_order(p: int, q: int) -> int:
    """Smallest d >= 1 with p**d = 1 (mod q), for distinct primes, q odd.

    Found by factoring q - 1 and descending through its divisors, so the
    result is exact.  The returned d always divides q - 1.
    """
    _check_order_args(p, q)
    from .factor import DEFAULT_BUDGET, factorize

    grp = factorize(q - 1, DEFAULT_BUDGET)
    if not grp.complete:
        raise ValueError(f"cannot certify order: {q - 1} did not factor completely")
    d = q - 1
    for pp in grp.factors:
        for _ in range(pp.exponent):
            if pow(p, d // pp.prime, q) == 1:
                d //= pp.prime
            else:
                break
    return d


def order_valuation(p: int, q: int) -> int:
    """The e >= 1 with q**e exactly dividing p**d - 1, d the order of p mod q."""
    d = multiplicative_order(p, q)
    e = 1
    while pow(p, d, q ** (e + 1)) == 1:
        e += 1
    return e


def _check_order_args(p: int, q: int) -> None:
    if not is_prime(q) or q == 2:
        raise ValueError(f"modulus must be an odd prime, got {q}")
    if not is_prime(p):
        raise ValueError(f"base must be prime, got {p}")
    if p == q:
        raise ValueError(f"base and modulus must be distinct, both are {p}")
