"""Integer factorization with explicit effort budgets and a persistent cache.

The algorithm stack is trial division up to a configurable bound followed
by Brent's variant of the Pollard rho method on whatever composite is
left.  Rho uses the fixed constant schedule c = 1, 2, 3, ..., and nothing
is memoized between calls, so a result depends only on (n, budget) and on
the `FactorCache` the caller passes, if any.

Partial results are first-class: when a budget runs out the unfinished
composite part is reported as a cofactor and the status says why the
factorization stopped.  Callers that only need *some* prime divisors can
use what was found; callers that need completeness check `status`.
"""

import functools
import math
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

from . import arith

STATUS_COMPLETE = "complete"
STATUS_PARTIAL = "partial"
STATUS_EXHAUSTED = "exhausted"
_STATUSES = (STATUS_COMPLETE, STATUS_PARTIAL, STATUS_EXHAUSTED)

_RHO_BATCH = 128


@dataclass(frozen=True)
class PrimePower:
    prime: int
    exponent: int

    def __str__(self) -> str:
        return f"{self.prime}^{self.exponent}"


@dataclass(frozen=True)
class SearchBudget:
    """Effort limits for factoring and for the closure search.

    Defaults: trial division to 1e6, 1e7 rho iterations per composite,
    512-bit cap on composites handed to rho, closure depth 12.
    """

    trial_division_bound: int = 10**6
    rho_iteration_cap: int = 10**7
    max_candidate_bits: int = 512
    max_depth: int = 12

    def __post_init__(self) -> None:
        for name in ("trial_division_bound", "rho_iteration_cap", "max_candidate_bits", "max_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class Factorization:
    """target = product(prime**exponent) * cofactor, cofactor 1 iff complete."""

    target: int
    factors: tuple[PrimePower, ...]
    cofactor: int
    status: str

    @property
    def complete(self) -> bool:
        return self.status == STATUS_COMPLETE

    @property
    def prime_divisors(self) -> frozenset[int]:
        return frozenset(pp.prime for pp in self.factors)

    def pairs(self) -> list[tuple[int, int]]:
        return [(pp.prime, pp.exponent) for pp in self.factors]

    def check(self) -> None:
        """Re-verify all structural invariants; raises ValueError on breach."""
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.cofactor == 1) != (self.status == STATUS_COMPLETE):
            raise ValueError("status/cofactor mismatch")
        product = self.cofactor
        last = 0
        for pp in self.factors:
            if pp.exponent < 1:
                raise ValueError(f"exponent < 1 on {pp}")
            # then prime**exponent > target: refuse before computing it
            if pp.exponent >= self.target.bit_length():
                raise ValueError(f"exponent of {pp} too large for {self.target}")
            if pp.prime <= last:
                raise ValueError("factors not sorted by prime")
            last = pp.prime
            if not arith.is_prime(pp.prime):
                raise ValueError(f"{pp.prime} is not prime")
            product *= pp.prime**pp.exponent
        if product != self.target:
            raise ValueError(f"factors do not reconstruct {self.target}")
        if self.cofactor > 1 and arith.is_prime(self.cofactor):
            raise ValueError(f"cofactor {self.cofactor} is prime, should be a factor")

    def to_line(self) -> str:
        mid = " ".join(str(pp) for pp in self.factors)
        mid = f" {mid}" if mid else ""
        return f"{self.target} {self.status}{mid} {self.cofactor}"

    @classmethod
    def from_line(cls, line: str) -> "Factorization":
        tokens = line.split()
        if len(tokens) < 3:
            raise ValueError(f"short cache line: {line!r}")
        target = int(tokens[0])
        status = tokens[1]
        cofactor = int(tokens[-1])
        factors = []
        for tok in tokens[2:-1]:
            p, _, e = tok.partition("^")
            factors.append(PrimePower(int(p), int(e)))
        return cls(target, tuple(factors), cofactor, status)


@functools.cache
def _prime_blocks(bound: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # products of 64 primes at a time; one gcd screens a whole block
    primes = arith.primes_up_to(bound)
    chunks = (tuple(primes[i : i + 64]) for i in range(0, len(primes), 64))
    return tuple((math.prod(chunk), chunk) for chunk in chunks)


def _trial_divide(n: int, bound: int, counts: dict[int, int]) -> int:
    """Strip all prime factors <= bound from n; returns the cofactor."""
    cof = n
    for prod, chunk in _prime_blocks(bound):
        if cof == 1 or chunk[0] * chunk[0] > cof:
            break
        if math.gcd(cof, prod) == 1:
            continue
        for p in chunk:
            if p * p > cof:
                break
            while cof % p == 0:
                counts[p] = counts.get(p, 0) + 1
                cof //= p
    # a cofactor below the square of the last screened prime is prime, not
    # "unfactored"; the caller certifies it with is_prime
    return cof


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


def factorize(
    n: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: "FactorCache | None" = None,
) -> Factorization:
    """Factor n within the given budget; never fails, may return partial.

    A complete record of n in `cache` is returned as is.  Completeness is
    guaranteed whenever the second-largest prime factor of n is at most
    the trial division bound, and holds in practice far beyond that
    (rho splits anything whose second-largest prime factor is roughly
    below the square of the iteration cap).  Status values:

    - "complete":  cofactor 1, all prime powers certified.
    - "partial":   a composite part exceeded max_candidate_bits and was
                   not attacked with rho.
    - "exhausted": rho hit its iteration cap on some composite part.
    """
    if n < 2:
        raise ValueError(f"factorize needs n >= 2, got {n}")
    if cache is not None:
        cached = cache.get(n)
        if cached is not None and cached.complete:
            return cached

    counts: dict[int, int] = {}
    skipped_bits = False
    exhausted = False
    leftovers: list[int] = []

    cof = _trial_divide(n, budget.trial_division_bound, counts)
    if cof > 1:
        pending = [cof]
        while pending:
            pending.sort(reverse=True)
            m = pending.pop()  # smallest first, deterministic
            if arith.is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            if m.bit_length() > budget.max_candidate_bits:
                skipped_bits = True
                leftovers.append(m)
                continue
            divisor = _rho_split(m, budget.rho_iteration_cap)
            if divisor is None:
                exhausted = True
                leftovers.append(m)
                continue
            pending.extend((divisor, m // divisor))

    cofactor = 1
    for m in leftovers:
        cofactor *= m
    if cofactor == 1:
        status = STATUS_COMPLETE
    elif exhausted:
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_PARTIAL
    result = Factorization(
        target=n,
        factors=tuple(PrimePower(p, e) for p, e in sorted(counts.items())),
        cofactor=cofactor,
        status=status,
    )
    if cache is not None:
        cache.put(result)
    return result


class FactorCache:
    """Persistent factorization store, one human-readable record per line.

    Line format: ``<target> <status> <p>^<e> <p>^<e> ... <cofactor>``,
    every number decimal.  Writes append; on load the best record per
    target wins.  An entry is only ever upgraded: complete beats
    anything, otherwise a smaller cofactor (more factors pulled out)
    beats a larger one.  Corrupt or inconsistent lines are skipped with
    a warning, never a crash.

    Reads are lock-free; writes are serialized by an in-process lock.
    Certificate verification never consults this cache, so a stale or
    concurrently-updated entry can at worst waste effort, not produce an
    unverifiable result.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[int, Factorization] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = Factorization.from_line(line)
                    record.check()
                except (ValueError, AttributeError) as exc:
                    warnings.warn(f"{self.path}:{lineno}: skipping bad cache line ({exc})")
                    continue
                self._absorb(record)

    def _absorb(self, record: Factorization) -> bool:
        current = self._entries.get(record.target)
        if current is not None:
            if current.complete:
                return False
            if not record.complete and record.cofactor >= current.cofactor:
                return False
        self._entries[record.target] = record
        return True

    def get(self, n: int) -> Factorization | None:
        return self._entries.get(n)

    def put(self, record: Factorization) -> None:
        with self._lock:
            if self._absorb(record):
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a") as fh:
                    fh.write(record.to_line() + "\n")

    def __len__(self) -> int:
        return len(self._entries)
