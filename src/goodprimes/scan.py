"""Desk-scale exhaustive scanners for perfect numbers of special shapes.

Two kinds of scan live here.  The sieve-backed scans walk every integer
(or every multiple of 105) up to a memory-bounded limit and confirm that
no odd number is perfect, reporting the even perfect numbers found as a
positive control.  The form scans enumerate the sparse candidate sets

    squarefree form:   5^alpha * M^(2*beta), M odd squarefree, 5 ∤ M,
                       alpha = 1 (mod 4), M > 1;
    cyclotomic form:   5^alpha * 3^(2b) * q1^(6k1+2) * ... * qt^(6kt+2),
                       distinct primes qi > 5, t >= 1

directly from their factorizations, test sigma(n) != 2n with the exact
multiplicative sigma (never the sieve, candidates may exceed sieve
memory), and re-check each emitted candidate against the form predicate.
The cyclotomic scan additionally annotates every candidate with whether
one of its qi primes is good, and whether one is at most 157.

Reports serialize to canonical JSON with all integers as decimal
strings; the elapsed-time field is deliberately excluded from the
serialized form so identical scans produce byte-identical output.
"""

import json
import math
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .factor import DEFAULT_BUDGET, FactorCache, SearchBudget, factorize
from .goodness import GOOD, INCONCLUSIVE, is_good
from .jsonio import canonical_dumps, dec, undec

SIEVE_BOUND_LIMIT = 10**8
FORM_BOUND_LIMIT = 10**12

FORM_ODD = "odd"
FORM_SQUAREFREE = "squarefree"
FORM_CYCLOTOMIC = "cyclotomic"
FORM_105 = "105"


class ResourceLimitError(RuntimeError):
    """A scan bound exceeds the documented memory/effort limits."""


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
    elapsed: float
    notes: tuple[tuple[str, str], ...] = field(default=())

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        # elapsed is intentionally not serialized: reports must be
        # byte-identical across reruns
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
            elapsed=0.0,
            notes=tuple(sorted(data["notes"].items())),
        )


def sieve_sigma(bound: int, self_check: bool = True) -> np.ndarray:
    """Divisor sums sigma(n) for all n <= bound via a divisor-pair sieve.

    Index 0 of the returned array is unused (zero).  Bounds above 1e8
    are refused; the array alone is 8 bytes per entry.  A seeded random
    sample of the result is cross-checked against the multiplicative
    sigma on complete factorizations unless `self_check` is disabled.
    """
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    if bound > SIEVE_BOUND_LIMIT:
        raise ResourceLimitError(f"sieve bound {bound} exceeds limit {SIEVE_BOUND_LIMIT}")
    sig = np.zeros(bound + 1, dtype=np.int64)
    for d in range(1, math.isqrt(bound) + 1):
        sig[d * d] += d
        first = d * (d + 1)
        if first <= bound:
            partners = np.arange(d + 1, bound // d + 1, dtype=np.int64)
            sig[first::d][: len(partners)] += d + partners
    if self_check:
        rng = random.Random(0xD1715 ^ bound)
        for _ in range(min(1000, bound)):
            n = rng.randint(1, bound)
            expected = 1 if n == 1 else arith.sigma(n, factorize(n))
            if int(sig[n]) != expected:
                raise AssertionError(f"sieve disagrees with multiplicative sigma at n={n}")
    return sig


def scan_odd_perfect(bound: int) -> ScanReport:
    """Confirm no odd n <= bound is perfect; list the even perfect numbers."""
    start = time.perf_counter()
    sig = sieve_sigma(bound)
    values = np.arange(bound + 1, dtype=np.int64)
    mask = sig == 2 * values
    mask[0] = False
    hits = [int(v) for v in np.nonzero(mask)[0]]
    odd_hits = [v for v in hits if v % 2]
    return ScanReport(
        form=FORM_ODD,
        bound=bound,
        candidates_checked=(bound + 1) // 2,
        counterexamples=tuple(_audit_record(v) for v in odd_hits),
        perfect_found=tuple(v for v in hits if v % 2 == 0),
        elapsed=time.perf_counter() - start,
    )


def scan_105(bound: int) -> ScanReport:
    """Confirm no odd multiple of 105 = 3*5*7 up to bound is perfect."""
    start = time.perf_counter()
    sig = sieve_sigma(bound)
    multiples = np.arange(105, bound + 1, 210, dtype=np.int64)
    bad = [int(v) for v in multiples[sig[multiples] == 2 * multiples]]
    return ScanReport(
        form=FORM_105,
        bound=bound,
        candidates_checked=len(multiples),
        counterexamples=tuple(_audit_record(v) for v in bad),
        perfect_found=(),
        elapsed=time.perf_counter() - start,
    )


def _audit_record(n: int) -> CandidateRecord:
    result = factorize(n)
    return CandidateRecord(n, tuple(result.pairs()), arith.sigma(n, result))


def matches_squarefree_form(pairs) -> bool:
    """Is this factorization 5^alpha times a squarefree odd kernel to one
    common even power, with alpha = 1 (mod 4) and the kernel coprime to 5?"""
    exponents = dict(pairs)
    alpha = exponents.pop(5, 0)
    if alpha % 4 != 1 or not exponents:
        return False
    common = set(exponents.values())
    if len(common) != 1:
        return False
    e = common.pop()
    if e < 2 or e % 2:
        return False
    return all(p % 2 and arith.is_prime(p) for p in exponents)


def matches_cyclotomic_form(pairs) -> bool:
    """Is this factorization 5^alpha * 3^(2b) * prod qi^(6ki+2), qi > 5?"""
    exponents = dict(pairs)
    if exponents.pop(5, 0) < 1:
        return False
    b2 = exponents.pop(3, 0)
    if b2 < 2 or b2 % 2 or not exponents:
        return False
    return all(p > 5 and e % 6 == 2 and arith.is_prime(p) for p, e in exponents.items())


def _check_form_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    if bound > FORM_BOUND_LIMIT:
        raise ResourceLimitError(f"form scan bound {bound} exceeds limit {FORM_BOUND_LIMIT}")


def _squarefree_alpha_scan(alpha: int, bound: int, beta_max: int | None):
    base = 5**alpha
    checked = 0
    bad: list[CandidateRecord] = []
    pool = [p for p in arith.primes_up_to(math.isqrt(bound // base)) if p not in (2, 5)]
    beta = 1
    while base * 3 ** (2 * beta) <= bound and (beta_max is None or beta <= beta_max):
        e = 2 * beta
        sigma5 = arith.sigma_prime_power(5, alpha)
        stack = [(0, base, sigma5, ((5, alpha),))]
        while stack:
            start_index, value, sigma_acc, factors = stack.pop()
            for j in range(start_index, len(pool)):
                p = pool[j]
                step = p**e
                candidate = value * step
                if candidate > bound:
                    break
                cand_sigma = sigma_acc * arith.sigma_prime_power(p, e)
                cand_factors = factors + ((p, e),)
                if not matches_squarefree_form(cand_factors):
                    raise AssertionError(f"enumerator left the squarefree form at {candidate}")
                checked += 1
                if cand_sigma == 2 * candidate:
                    bad.append(CandidateRecord(candidate, cand_factors, cand_sigma))
                stack.append((j + 1, candidate, cand_sigma, cand_factors))
        beta += 1
    return checked, bad


def scan_squarefree_form(
    bound: int,
    alpha_max: int | None = None,
    beta_max: int | None = None,
) -> ScanReport:
    """Enumerate 5^alpha * M^(2*beta) <= bound and confirm none is perfect.

    M ranges over odd squarefree numbers > 1 coprime to 5, alpha over
    1, 5, 9, ...; perfection is tested with the exact multiplicative
    sigma on the constructed factorization.
    """
    _check_form_bound(bound)
    start = time.perf_counter()
    alphas = []
    alpha = 1
    while 5**alpha * 9 <= bound and (alpha_max is None or alpha <= alpha_max):
        alphas.append(alpha)
        alpha += 4
    parts = [_squarefree_alpha_scan(a, bound, beta_max) for a in alphas]
    checked = sum(part[0] for part in parts)
    bad = sorted((rec for part in parts for rec in part[1]), key=lambda rec: rec.value)
    return ScanReport(
        form=FORM_SQUAREFREE,
        bound=bound,
        candidates_checked=checked,
        counterexamples=tuple(bad),
        perfect_found=(),
        elapsed=time.perf_counter() - start,
    )


def _cyclo_alpha_scan(alpha: int, bound: int, b_max: int | None, pool: list[int]):
    base5 = 5**alpha
    checked = 0
    bad: list[CandidateRecord] = []
    prime_sets: list[tuple[int, ...]] = []
    b = 1
    while base5 * 3 ** (2 * b) * 49 <= bound and (b_max is None or b <= b_max):
        base = base5 * 3 ** (2 * b)
        sigma_base = arith.sigma_prime_power(5, alpha) * arith.sigma_prime_power(3, 2 * b)
        head = ((3, 2 * b), (5, alpha))
        stack = [(0, base, sigma_base, head, ())]
        while stack:
            start_index, value, sigma_acc, factors, qs = stack.pop()
            for j in range(start_index, len(pool)):
                q = pool[j]
                step = q * q
                candidate = value * step
                if candidate > bound:
                    break
                exponent = 2
                while candidate <= bound:
                    cand_sigma = sigma_acc * arith.sigma_prime_power(q, exponent)
                    cand_factors = tuple(sorted(factors + ((q, exponent),)))
                    if not matches_cyclotomic_form(cand_factors):
                        raise AssertionError(f"enumerator left the cyclotomic form at {candidate}")
                    checked += 1
                    if cand_sigma == 2 * candidate:
                        bad.append(CandidateRecord(candidate, cand_factors, cand_sigma))
                    prime_sets.append(qs + (q,))
                    stack.append((j + 1, candidate, cand_sigma, factors + ((q, exponent),), qs + (q,)))
                    exponent += 6
                    candidate *= q**6
        b += 1
    return checked, bad, prime_sets


def scan_cyclotomic_form(
    bound: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: FactorCache | None = None,
    alpha_max: int | None = None,
    b_max: int | None = None,
    annotate_goodness: bool = True,
) -> ScanReport:
    """Enumerate 5^a * 3^(2b) * prod qi^(6ki+2) <= bound; none may be perfect.

    Each candidate is annotated with whether some qi is good under the
    given budget (inconclusive verdicts are counted, never fatal) and
    whether some qi is at most 157.  Goodness of each distinct prime is
    decided once and shared.  q = 7 can occur in the form but goodness
    is defined for primes > 7 only, so it never counts as good.
    """
    _check_form_bound(bound)
    start = time.perf_counter()
    qpool = [p for p in arith.primes_up_to(math.isqrt(bound // 45)) if p > 5]
    alphas = []
    alpha = 1
    while 5**alpha * 9 * 49 <= bound and (alpha_max is None or alpha <= alpha_max):
        alphas.append(alpha)
        alpha += 1
    parts = [_cyclo_alpha_scan(a, bound, b_max, qpool) for a in alphas]

    checked = sum(part[0] for part in parts)
    bad = sorted((rec for part in parts for rec in part[1]), key=lambda rec: rec.value)
    prime_sets = [qs for part in parts for qs in part[2]]

    notes: list[tuple[str, str]] = []
    if annotate_goodness:
        distinct = sorted({q for qs in prime_sets for q in qs})
        verdicts = {q: "undefined" if q <= 7 else is_good(q, budget, cache).verdict for q in distinct}
        with_good = sum(1 for qs in prime_sets if any(verdicts[q] == GOOD for q in qs))
        with_small = sum(1 for qs in prime_sets if any(q <= 157 for q in qs))
        inconclusive = sum(1 for q in distinct if verdicts[q] == INCONCLUSIVE)
        notes = [
            ("candidates_with_good_prime", dec(with_good)),
            ("candidates_with_prime_at_most_157", dec(with_small)),
            ("distinct_primes", dec(len(distinct))),
            ("goodness_inconclusive_primes", dec(inconclusive)),
        ]

    return ScanReport(
        form=FORM_CYCLOTOMIC,
        bound=bound,
        candidates_checked=checked,
        counterexamples=tuple(bad),
        perfect_found=(),
        elapsed=time.perf_counter() - start,
        notes=tuple(notes),
    )
