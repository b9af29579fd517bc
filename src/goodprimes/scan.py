"""Desk-scale exhaustive scanners for perfect numbers of special shapes.

Two kinds of scan live here.  The sieve-backed scans confirm that no odd
n up to a memory-bounded limit is perfect (even perfect numbers found are
the positive control), or, sieving only 105 (mod 210), that no odd
multiple of 105 is.  The form scans enumerate the sparse candidate sets

    squarefree form:   5^alpha * M^(2*beta), M odd squarefree, 5 ∤ M,
                       alpha = 1 (mod 4), M > 1;
    cyclotomic form:   5^alpha * 3^(2b) * q1^(6k1+2) * ... * qt^(6kt+2),
                       distinct primes qi > 5, t >= 1

directly from their factorizations with one enumerator: each form is a
list of roots (5^alpha, or 5^alpha * 3^(2b)) times products of distinct
primes from one ascending pool, each prime raised to one of the
exponents its root allows (2*beta; or 2, 8, 14, ...).  The enumerator
tests sigma(n) != 2n with the exact multiplicative sigma (never the
sieve, candidates may exceed sieve memory).
The cyclotomic scan additionally annotates every candidate with whether
one of its qi primes is good, and whether one is at most 157.

All four scans report through `_report`, which factors every odd hit
(sigma(n) == 2n) again and records it with its sigma as a counterexample.

Reports serialize to canonical JSON with all integers as decimal
strings and no timings, so identical scans produce byte-identical output.
"""

import json
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import SIEVE_BOUND_LIMIT, ResourceLimitError
from .factor import DEFAULT_BUDGET, SearchBudget, factorize
from .goodness import GOOD, INCONCLUSIVE, goodness_verdicts
from .jsonio import canonical_dumps, dec, undec

FORM_BOUND_LIMIT = 10**12
_BLOCK = 1 << 18  # entries per sieve temporary

FORM_ODD = "odd"
FORM_SQUAREFREE = "squarefree"
FORM_CYCLOTOMIC = "cyclotomic"
FORM_105 = "105"


@dataclass(frozen=True)
class CandidateRecord:
    """A candidate kept for independent audit: value, factorization, sigma."""

    value: int
    factors: tuple[tuple[int, int], ...]
    sigma_value: int

    def to_dict(self) -> dict:
        return {
            "value": dec(self.value),
            "factors": [[dec(p), dec(e)] for p, e in self.factors],
            "sigma": dec(self.sigma_value),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateRecord":
        return cls(
            value=undec(data["value"]),
            factors=tuple((undec(p), undec(e)) for p, e in data["factors"]),
            sigma_value=undec(data["sigma"]),
        )


@dataclass(frozen=True)
class ScanReport:
    form: str
    bound: int
    candidates_checked: int
    counterexamples: tuple[CandidateRecord, ...]
    perfect_found: tuple[int, ...]
    notes: tuple[tuple[str, str], ...] = ()

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "bound": dec(self.bound),
            "candidates_checked": dec(self.candidates_checked),
            "counterexamples": [rec.to_dict() for rec in self.counterexamples],
            "perfect_found": [dec(v) for v in self.perfect_found],
            "notes": {k: v for k, v in self.notes},
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScanReport":
        data = json.loads(text)
        return cls(
            form=data["form"],
            bound=undec(data["bound"]),
            candidates_checked=undec(data["candidates_checked"]),
            counterexamples=tuple(CandidateRecord.from_dict(d) for d in data["counterexamples"]),
            perfect_found=tuple(undec(v) for v in data["perfect_found"]),
            notes=tuple(sorted(data["notes"].items())),
        )


def _blocks(target: np.ndarray, values: range):
    """(offset, target block, values block in its dtype) triples of at most _BLOCK entries."""
    for i in range(0, len(values), _BLOCK):
        r = values[i : i + _BLOCK]
        yield i, target[i : i + len(r)], np.arange(r.start, r.stop, r.step, dtype=target.dtype)


def _sigma_progression(out: np.ndarray, bound: int, start: int, step: int) -> None:
    """Add sigma(start + i*step) into out[i] for every member <= bound: each
    d <= sqrt(bound) adds d + k for its cofactors k >= d in the progression,
    one class mod step/gcd(d, step) found by one modular inverse."""
    for d in range(1, math.isqrt(bound) + 1):
        g = math.gcd(d, step)
        if start % g:
            continue  # d divides no member
        period = step // g
        k = d + (start // g * pow(d // g, -1, period) - d) % period
        first = (d * k - start) // step
        for _, multiples, ramp in _blocks(out[first :: d // g], range(k + d, bound // d + d + 1, period)):
            multiples += ramp
        if k == d:
            out[first] -= d  # the square d*d has the divisor d once


def _check_sample(sigma_at, bound: int, members: range) -> None:
    """Cross-check sigma_at(n) for a seeded sample of n in members against
    the multiplicative sigma on complete factorizations."""
    rng = random.Random(0xD1715 ^ bound)
    for _ in range(min(1000, len(members))):
        n = members[rng.randrange(len(members))]
        expected = 1 if n == 1 else arith.sigma(n, factorize(n).factors)
        if sigma_at(n) != expected:
            raise AssertionError(f"sieve disagrees with multiplicative sigma at n={n}")


def sieve_sigma(bound: int) -> np.ndarray:
    """Divisor sums sigma(n) for all n <= bound as int32; index 0 is unused (zero).

    The divisor-pair sieve runs over odd n only, and each even n = 2^a * m,
    m odd, gets (2^(a+1) - 1) * sigma(m).  Bounds above 1e8 are refused, so
    int32 is exact (Robin 1984: sigma(n) < 5.5e8 < 2^31 there): 4 bytes per
    entry (`scan_odd_perfect` keeps the odd half alone, 2) and each temporary
    at most _BLOCK entries.  A seeded sample is checked by multiplicative sigma.
    """
    _check_bound(bound, SIEVE_BOUND_LIMIT, "sieve")
    sig = np.zeros(bound + 1, dtype=np.int32)
    _sigma_progression(sig[1::2], bound, 1, 2)
    for a in range(1, bound.bit_length()):
        even = sig[1 << a :: 2 << a]  # n = 2^a * m for odd m = 1, 3, 5, ...
        np.multiply(sig[1 : 2 * len(even) : 2], (2 << a) - 1, out=even)
    _check_sample(lambda n: int(sig[n]), bound, range(1, bound + 1))
    return sig


def _stride_hits(sigmas: np.ndarray, bound: int, start: int, step: int) -> list[int]:
    """The n = start + i*step <= bound with sigmas[i] == 2n, compared one block at a time."""
    twice = range(2 * start, 2 * bound + 1, 2 * step)
    return [start + step * (i + int(j)) for i, block, ramp in _blocks(sigmas, twice) for j in np.flatnonzero(block == ramp)]


def _report(form: str, bound: int, checked: int, hits, perfect_found=(), notes=()) -> ScanReport:
    """The one report of every scan: each odd hit (sigma(n) == 2n) is factored
    again and kept as an audited counterexample with its multiplicative sigma."""
    records = []
    for n in hits:
        factors = factorize(n).factors
        records.append(CandidateRecord(n, factors, arith.sigma(n, factors)))
    return ScanReport(form, bound, checked, tuple(records), tuple(perfect_found), tuple(notes))


def scan_odd_perfect(bound: int) -> ScanReport:
    """Confirm no odd n <= bound is perfect; list the even perfect numbers.

    Only the odd n are sieved, 2 bytes per n.  An even n = q*m, q = 2^a, m odd,
    has sigma(n) = p*sigma(m), p = 2q - 1 prime to 2q, so it is perfect iff
    m = p*k and sigma(m) = 2q*k; `sieve_sigma`'s sample is checked the same way.
    """
    _check_bound(bound, SIEVE_BOUND_LIMIT, "sieve")
    odd = np.zeros((bound + 1) // 2, dtype=np.int32)  # odd[i] = sigma(2i + 1)
    _sigma_progression(odd, bound, 1, 2)
    _check_sample(lambda n: (2 * (n & -n) - 1) * int(odd[n // (n & -n) // 2]), bound, range(1, bound + 1))
    powers = [(1 << a, (2 << a) - 1) for a in range(1, bound.bit_length())]  # q, p; odd[q - 1 :: p] = sigma(p*k), k odd
    even = [p * v for q, p in powers for v in _stride_hits(odd[q - 1 :: p], bound // (q * p) * q, q, 2 * q)]
    return _report(FORM_ODD, bound, len(odd), _stride_hits(odd, bound, 1, 2), sorted(even))


def scan_105(bound: int) -> ScanReport:
    """Confirm no odd multiple of 105 = 3*5*7 up to bound is perfect; sieves only 105 (mod 210)."""
    _check_bound(bound, SIEVE_BOUND_LIMIT, "sieve")
    sigmas = np.zeros(len(range(105, bound + 1, 210)), dtype=np.int32)
    _sigma_progression(sigmas, bound, 105, 210)
    _check_sample(lambda n: int(sigmas[n // 210]), bound, range(105, bound + 1, 210))
    return _report(FORM_105, bound, len(sigmas), _stride_hits(sigmas, bound, 105, 210))


def _exponents(pairs) -> dict[int, int]:
    """{prime: exponent}, or {} (which matches no form) when a prime repeats."""
    exponents = dict(pairs)
    return exponents if len(exponents) == len(pairs) else {}


def matches_squarefree_form(pairs) -> bool:
    """Is this factorization 5^alpha times a squarefree odd kernel to one
    common even power, with alpha = 1 (mod 4) and the kernel coprime to 5?
    The tests hold every candidate of `scan_squarefree_form` to it."""
    exponents = _exponents(pairs)
    alpha = exponents.pop(5, 0)
    if alpha < 1 or alpha % 4 != 1 or not exponents:
        return False
    common = set(exponents.values())
    if len(common) != 1:
        return False
    e = common.pop()
    if e < 2 or e % 2:
        return False
    return all(p % 2 and arith.is_prime(p) for p in exponents)


def matches_cyclotomic_form(pairs) -> bool:
    """Is this factorization 5^alpha * 3^(2b) * prod qi^(6ki+2), qi > 5?
    The tests hold every candidate of `scan_cyclotomic_form` to it."""
    exponents = _exponents(pairs)
    if exponents.pop(5, 0) < 1:
        return False
    b2 = exponents.pop(3, 0)
    if b2 < 2 or b2 % 2 or not exponents:
        return False
    return all(p > 5 and e >= 2 and e % 6 == 2 and arith.is_prime(p) for p, e in exponents.items())


def _check_bound(bound: int, limit: int, kind: str) -> None:
    if operator.index(bound) < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    if bound > limit:
        raise ResourceLimitError(f"{kind} bound {bound} exceeds limit {limit}")


def _enumerate_form(bound: int, pool: list[int], roots):
    """Walk every root times a product of distinct pool primes <= bound.

    Each root is (factors, exponents): a prime q of the ascending pool
    enters with one of its `exponents`.  Returns the sorted perfect values
    and every candidate's factorization.  The callers build the pool and
    roots inside the form; the tests hold every candidate to `matches_*_form`.
    """
    perfect: list[int] = []
    candidates: list[tuple[tuple[int, int], ...]] = []
    for root_factors, exponents in roots:
        root_value = math.prod(p**e for p, e in root_factors)
        root_sigma = math.prod(arith.sigma_prime_power(p, e) for p, e in root_factors)
        stack = [(0, root_value, root_sigma, root_factors)]
        while stack:
            start_index, value, sigma_acc, factors = stack.pop()
            for j in range(start_index, len(pool)):
                q = pool[j]
                if value * q ** exponents[0] > bound:
                    break
                for e in exponents:
                    power = q**e
                    candidate = value * power
                    if candidate > bound:
                        break
                    cand_sigma = sigma_acc * ((power * q - 1) // (q - 1))
                    cand_factors = factors + ((q, e),)
                    if cand_sigma == 2 * candidate:
                        perfect.append(candidate)
                    candidates.append(cand_factors)
                    if j + 1 < len(pool) and candidate * pool[j + 1] ** exponents[0] <= bound:
                        stack.append((j + 1, candidate, cand_sigma, cand_factors))
    return sorted(perfect), candidates


def scan_squarefree_form(bound: int) -> ScanReport:
    """Enumerate 5^alpha * M^(2*beta) <= bound and confirm none is perfect.

    M ranges over odd squarefree numbers > 1 coprime to 5, alpha over
    1, 5, 9, ...; each (alpha, beta) is one root 5^alpha of the shared
    form enumerator, whose primes all enter with exponent 2*beta.
    Perfection is tested with the exact multiplicative sigma on the
    constructed factorization.
    """
    _check_bound(bound, FORM_BOUND_LIMIT, "form scan")
    pool = [p for p in arith.primes_up_to(math.isqrt(bound // 5)) if p not in (2, 5)]
    top = bound.bit_length()  # 5^alpha <= bound needs alpha < top, likewise 9^beta
    roots = [
        (((5, alpha),), (2 * beta,))
        for alpha in range(1, top, 4)
        for beta in range(1, top)
        if 5**alpha * 9**beta <= bound
    ]
    perfect, candidates = _enumerate_form(bound, pool, roots)
    return _report(FORM_SQUAREFREE, bound, len(candidates), perfect)


def scan_cyclotomic_form(
    bound: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    annotate_goodness: bool = True,
) -> ScanReport:
    """Enumerate 5^a * 3^(2b) * prod qi^(6ki+2) <= bound; none may be perfect.

    Each (a, b) is one root 5^a * 3^(2b) of the shared form enumerator,
    whose primes qi > 5 enter with exponents 2, 8, 14, ...  Each
    candidate is annotated with whether some qi is good under the
    given budget (inconclusive verdicts are counted, never fatal) and
    whether some qi is at most 157.  Every pool prime q occurs, in
    5 * 3^2 * q^2 <= bound, so one `goodness_verdicts` call over the pool
    gives the `is_good` verdict of every distinct prime, without
    certificates.  q = 7 can occur in the form but goodness is defined
    for primes > 7 only, so it never counts as good.
    """
    _check_bound(bound, FORM_BOUND_LIMIT, "form scan")
    pool = [p for p in arith.primes_up_to(math.isqrt(bound // 45)) if p > 5]
    top = bound.bit_length()  # x^e <= bound needs e < top for every x >= 2
    exponents = range(2, top, 6)
    roots = [
        (((3, 2 * b), (5, a)), exponents)
        for a in range(1, top)
        for b in range(1, top)
        if 5**a * 9**b * 49 <= bound
    ]
    perfect, candidates = _enumerate_form(bound, pool, roots)

    notes = ()
    if annotate_goodness:
        verdicts = goodness_verdicts([q for q in pool if q > 7], budget)
        with_good = sum(any(verdicts.get(p) == GOOD for p, _ in factors) for factors in candidates)
        with_small = sum(any(5 < p <= 157 for p, _ in factors) for factors in candidates)
        inconclusive = list(verdicts.values()).count(INCONCLUSIVE)
        notes = (
            ("candidates_with_good_prime", dec(with_good)),
            ("candidates_with_prime_at_most_157", dec(with_small)),
            ("distinct_primes", dec(len(pool))),
            ("goodness_inconclusive_primes", dec(inconclusive)),
        )
    return _report(FORM_CYCLOTOMIC, bound, len(candidates), perfect, notes=notes)
