"""Integer factorization with explicit effort budgets.

Trial division to a configurable bound (by 3 and the primes = 1 (mod 6) alone for a
closure step's x^2 + x + 1: no other prime divides it) comes first.  Then each splitter of
an ordered list runs on every composite part, smallest first, until each part is prime,
wider than 512 bits, or one it fails on; a split piece goes straight back to the same
splitter.  The list: Brent's variant of the Pollard rho method for min(cap, 2^16)
iterations, then, only under a rho cap above 2^16, Lenstra's elliptic-curve method (ECM).
Rho walks c = 1, 2, 3, ..., ECM the curve seeds sigma = 6, 7, 8, ..., and nothing is
stored between calls, so `factorize` is pure in (n, budget).  A closure step draws the
result before each splitter call (`_stages`) and may stop there (`_no_factor_between`).

Factors are (prime, exponent) int pairs in ascending prime order, the shape
`arith.sigma` takes.  Partial results are first-class: the composite part left
unsplit is reported as a cofactor.  Callers that only need *some* prime divisors
can use what was found; callers that need completeness check `complete`.
"""

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import arith

STATUS_COMPLETE = "complete"
STATUS_EXHAUSTED = "exhausted"

_RHO_BATCH = 128
_BLOCK_PRIMES = 128  # primes per trial-division gcd; 256 saves little more and is slower on small n
_SEGMENT = 2**17  # k per sieved segment in `_no_factor_between`
_MAX_RHO_BITS = 512  # wider composites are left unsplit ("exhausted"), never handed to a splitter
_QUICK_CAP = 2**16  # the first splitter's rho cap (Brent runs 2^17 - 2 on a part that does not split)
_ECM_CURVES = 100  # ECM runs only under a rho cap above _QUICK_CAP
_ECM_B1, _ECM_B2 = 2000, 150_000  # stage 1 and stage 2 bounds
_ECM_D = 2310  # 2*3*5*7*11: stage 2 meets a prime p as m*D +- j with gcd(j, D) = 1
_SPLITTERS = (  # the module docstring's list, called as split(m, cap); the second runs only when cap > _QUICK_CAP
    lambda m, cap: _rho_split(m, min(cap, _QUICK_CAP)),
    lambda m, cap: _ecm_split(m),
)


@dataclass(frozen=True)
class SearchBudget:
    """Effort limits for factoring and for the closure search.

    Defaults: trial division to 1e6, rho cap 1e7, closure depth 12.  Rho
    runs to min(cap, 2^16) per composite (2^17 - 2 iterations, as Brent's
    rounds end, on one that does not split); any cap above 2^16 buys ECM
    too, up to 100 curves.  No splitter gets a composite over 512 bits.
    """

    trial_division_bound: int = 10**6
    rho_iteration_cap: int = 10**7
    max_depth: int = 12

    def __post_init__(self) -> None:
        for name in ("trial_division_bound", "rho_iteration_cap", "max_depth"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Factorization:
    """target = product(p**e for p, e in factors) * cofactor, cofactor 1 iff complete."""

    target: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    @property
    def status(self) -> str:
        return STATUS_COMPLETE if self.complete else STATUS_EXHAUSTED

    @property
    def prime_divisors(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)

    def to_line(self) -> str:
        mid = " ".join(f"{p}^{e}" for p, e in self.factors)
        mid = f" {mid}" if mid else ""
        return f"{self.target} {self.status}{mid} {self.cofactor}"


@functools.cache
def _prime_blocks(bound: int, step: bool = False) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # products of _BLOCK_PRIMES primes at a time; one gcd screens a whole block.  A step's table
    # keeps 3 and the primes = 1 (mod 6): x has order 3 modulo any other prime dividing x^2 + x + 1
    primes = np.flatnonzero(arith._prime_flags(bound))
    primes = (primes[(primes % 6 == 1) | (primes == 3)] if step else primes).tolist()
    chunks = (tuple(primes[i : i + _BLOCK_PRIMES]) for i in range(0, len(primes), _BLOCK_PRIMES))
    return tuple((math.prod(chunk), chunk) for chunk in chunks)


def _trial_divide(n: int, bound: int, counts: dict[int, int], step: bool = False) -> int:
    """Divide n by each prime p <= bound while p * p <= what is left; returns the cofactor.

    The cofactor is 1, a prime (possibly <= bound: 2 * 999983 leaves 999983),
    or a composite with no prime factor <= bound.  A cofactor in
    (bound, _MR_DETERMINISTIC_BOUND) that `primality` proves prime ends the
    search early: no prime <= bound divides it, so the result is the same.
    A closure `step`'s x^2 + x + 1 is screened by `_prime_blocks`' step table alone.
    """
    cof, tested = n, 0
    for prod, chunk in _prime_blocks(bound, step):  # always (b, step): the cache keys f(b), f(b, False) apart
        if cof == 1 or chunk[0] * chunk[0] > cof:
            break
        if bound < cof != tested:  # the first block, or the last one stripped a factor
            tested = cof
            if cof < arith._MR_DETERMINISTIC_BOUND and arith._primality(cof) == arith.PRIME:
                break
        if math.gcd(cof, prod) == 1:
            continue
        for p in chunk:
            if p * p > cof:
                break
            while cof % p == 0:
                counts[p] = counts.get(p, 0) + 1
                cof //= p
    # only a cofactor that outlasts every block can be composite ("unfactored");
    # the caller's is_prime tells it from a prime one
    return cof


def _no_factor_between(n: int, lo: int, hi: int) -> bool:
    """True if no prime k = 1 (mod 6) in (lo, hi) divides n.  For n | x^2 + x + 1
    prime to 3, each prime factor is 1 (mod 6) (x has order 3 mod it), so
    none lies in (lo, hi).  False is "not proved", as for hi > SIEVE_BOUND_LIMIT.
    Each segment of the k is sieved by the primes 5 <= p <= min(1000, isqrt(hi))
    from p^2 up, so the primes stay in, and only what is left is tested."""
    if hi > arith.SIEVE_BOUND_LIMIT:
        return False
    small = [(p, pow(6, -1, p)) for p in arith.primes_up_to(min(1000, math.isqrt(hi)))[2:]]
    for start in range(lo + 1 + -lo % 6, hi, 6 * _SEGMENT):
        keep = np.ones(min(_SEGMENT, (hi - start + 5) // 6), dtype=bool)  # k = start + 6i
        for p, inv in small:
            first = max(0, -((start - p * p) // 6))  # the first i with k >= p^2
            keep[first + (-start * inv - first) % p :: p] = False
        k = np.flatnonzero(keep).astype(np.uint64) * 6 + start
        r = np.zeros_like(k)
        for shift in range(n.bit_length() // 32 * 32, -1, -32):  # Horner in base 2^32, r < k < 2^27
            r <<= 32
            r |= (n >> shift) & 0xFFFFFFFF
            r %= k
        if not r.all():
            return False
    return True


def _brent(n: int, c: int, max_iters: int) -> tuple[int | None, int]:
    """One Brent-rho attempt on odd composite n with x^2 + c; returns (divisor, iters)."""
    y, r, q = 2, 1, 1
    g, x, ys = 1, 2, 2
    used = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            ys = y
            lim = min(_RHO_BATCH, r - k)
            for _ in range(lim):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += lim
            g = math.gcd(q, n)
            k += _RHO_BATCH
        r <<= 1
        if used >= max_iters and g == 1:
            return None, used
    if g == n:
        g = 1
        for _ in range(_RHO_BATCH + 1):
            ys = (ys * ys + c) % n
            used += 1
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    if g in (1, n):
        return None, used
    return g, used


def _rho_split(n: int, cap: int) -> int | None:
    """Find a nontrivial divisor of composite n within the iteration cap.

    The polynomial constant walks c = 1, 2, 3, ... until the cap is spent.
    """
    if n % 2 == 0:
        return 2
    used = 0
    c = 0
    while used < cap:
        c += 1
        divisor, spent = _brent(n, c, cap - used)
        used += spent
        if divisor is not None:
            return divisor
    return None


def _xadd(p, q, diff, n):
    """x-only P + Q on a Montgomery curve, given P - Q; points are (X, Z)."""
    u = (p[0] - p[1]) * (q[0] + q[1]) % n
    v = (p[0] + p[1]) * (q[0] - q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _xdbl(p, a24, n):
    """x-only 2P on the Montgomery curve with a24 = (A + 2) / 4."""
    s, d = (p[0] + p[1]) ** 2 % n, (p[0] - p[1]) ** 2 % n
    return s * d % n, (s - d) * (d + a24 * (s - d)) % n


def _ladder(k, p, a24, n):
    r0, r1 = p, _xdbl(p, a24, n)  # kP, k >= 1, by Montgomery's ladder: R1 - R0 = P throughout
    for bit in bin(k)[3:]:
        if bit == "1":
            r0, r1 = _xadd(r1, r0, p, n), _xdbl(r1, a24, n)
        else:
            r0, r1 = _xdbl(r0, a24, n), _xadd(r1, r0, p, n)
    return r0


def _ecm_split(n: int) -> int | None:
    """Find a nontrivial divisor of odd composite n with Lenstra's ECM.

    Montgomery curves from Suyama's parametrisation with the seeds
    sigma = 6, 7, 8, ...; stage 1 multiplies the start point by every
    prime power up to B1, and a baby-step giant-step stage 2 finds a group
    order with one more prime up to B2.  A curve whose gcd is n is skipped.
    """
    k = math.lcm(*range(1, _ECM_B1 + 1))
    is_p = arith._prime_flags(_ECM_B2 + 2 * _ECM_D).tobytes()  # bytes index faster than numpy
    js = [j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1]
    for sigma in range(6, 6 + _ECM_CURVES):
        u, v = sigma * sigma - 5, 4 * sigma
        den = 16 * u**3 * v
        g = math.gcd(den, n)
        if g == 1:
            a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
            q = _ladder(k, (u**3 % n, v**3 % n), a24, n)
            g = math.gcd(q[1], n)
        if g == 1:
            # a prime m*D +- j dividing Q's order mod p | n makes x(mDQ) = x(jQ) mod p
            two = _xdbl(q, a24, n)
            odd = [q, _xadd(two, q, q, n)]
            while len(odd) < _ECM_D // 4:
                odd.append(_xadd(odd[-1], two, odd[-2], n))
            step = _ladder(_ECM_D, q, a24, n)
            acc, (gx, gz), after = 1, step, _xdbl(step, a24, n)
            for m in range(1, _ECM_B2 // _ECM_D + 2):
                for j in js:
                    if is_p[m * _ECM_D - j] or is_p[m * _ECM_D + j]:
                        bx, bz = odd[j // 2]
                        acc = acc * (gx * bz - bx * gz) % n
                (gx, gz), after = after, _xadd(after, step, (gx, gz), n)
            g = math.gcd(acc, n)
        if 1 < g < n:
            return g
    return None


def _stages(n: int, budget: SearchBudget, step: bool = False) -> Iterator[Factorization]:
    """Yield the factorization, after trial division (by the step table for a closure `step`), before
    each splitter call and last (`factorize(n, budget)`); smallest part first, an order that changes no factor."""
    counts: dict[int, int] = {}
    cap = budget.rho_iteration_cap
    cof = _trial_divide(n, budget.trial_division_bound, counts, step)
    left = [cof] if cof > 1 else []
    for split in _SPLITTERS[: 1 + (cap > _QUICK_CAP)]:
        parts, left = left, []
        while parts:
            m = parts.pop(parts.index(min(parts)))
            if arith.is_prime(m):
                counts[m] = counts.get(m, 0) + 1
            elif m.bit_length() > _MAX_RHO_BITS:
                left.append(m)
            else:
                yield Factorization(n, tuple(sorted(counts.items())), math.prod(left + parts) * m)
                if (divisor := split(m, cap)) is None:
                    left.append(m)
                else:
                    parts += divisor, m // divisor
    yield Factorization(n, tuple(sorted(counts.items())), math.prod(left))


def factorize(n: int, budget: SearchBudget = DEFAULT_BUDGET) -> Factorization:
    """Factor n within the given budget; never fails, may return incomplete.

    Completeness is guaranteed whenever the second-largest prime factor of n is at most the
    trial division bound, and holds in practice well beyond that: the 2^16 rho pass splits off
    primes up to about 2^32, and ECM (under a cap above 2^16) most primes up to about 50 bits.
    Each composite part goes through the module's splitters in turn (`_stages`).  Status values:

    - "complete":  cofactor 1, all prime powers certified.
    - "exhausted": a composite part is left as the cofactor: rho (and
                   ECM, under a cap above 2^16) failed on it, or it is
                   wider than 512 bits and was never handed to either.
    """
    if n < 2:
        raise ValueError(f"factorize needs n >= 2, got {n}")
    return list(_stages(n, budget))[-1]
