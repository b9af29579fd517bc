"""Good-prime search: the cyclotomic step map, its closure, certificates.

A prime p > 7 is *good* when the closure of {p} under the step map

    step(x) = { q prime : q != 3 and q divides x^2 + x + 1 }

contains a goal prime, i.e. one congruent to 2 or 4 modulo 7.  The
closure is grown breadth-first; `is_good` answers with one of three
verdicts:

- good:          a goal prime was reached; a replayable certificate
                 carries the edge path from the root to it.
- not_good:      the closure saturated (no new members, every value
                 factored completely) without meeting a goal prime.
- inconclusive:  the depth or factoring budget ran out first.

Certificates are canonical: shortest depth first, then the
lexicographically smallest prime path.  Each layer's new members are
kept in that canonical-path order, so the search ranks no paths: the
first goal prime met is the winner.  `verify_certificate` replays a
certificate from scratch, using neither the factorizer nor any cache,
so a verified certificate stands on its own.

Two facts keep the closure clean, and are asserted on every expansion:
x^2 + x + 1 is always odd and never divisible by 5, so the primes 2 and
5 can never enter a closure; 3 is excluded by the step definition.  A
member equal to 7 can occur and simply stays inert (the step map is
defined for primes > 7 only).
"""

import json
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from . import arith
from .factor import DEFAULT_BUDGET, FactorCache, SearchBudget, factorize
from .jsonio import canonical_dumps, dec, undec

GOAL_MODULUS = 7
GOAL_RESIDUES = frozenset({2, 4})

GOOD = "good"
NOT_GOOD = "not_good"
INCONCLUSIVE = "inconclusive"

_FORBIDDEN_MEMBERS = frozenset({2, 3, 5})


def is_goal_prime(p: int) -> bool:
    """True iff p is a prime congruent to 2 or 4 modulo 7."""
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p % GOAL_MODULUS in GOAL_RESIDUES


def cyclotomic_children(
    x: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: FactorCache | None = None,
) -> tuple[frozenset[int], bool]:
    """Certified prime divisors of x^2 + x + 1 other than 3, for prime x > 7.

    Returns (primes, complete).  The set is nonempty whenever complete
    (x^2 + x + 1 is never a power of 3); an incomplete factorization may
    yield an empty set.
    """
    if x <= 7:
        raise ValueError(f"step map needs a prime > 7, got {x}")
    if not arith.is_prime(x):
        raise ValueError(f"step map needs a prime, got composite {x}")
    value = arith.cyclotomic_value(3, x)
    result = factorize(value, budget, cache)
    children = result.prime_divisors - {3}
    if result.complete and not children:
        raise AssertionError(f"x^2+x+1 reduced to a power of 3 at x={x}")
    return frozenset(children), result.complete


@dataclass(frozen=True)
class ClosureState:
    """The closure of `root` after `depth` layers.

    `parents` maps each member to the member it was first reached from
    (None for the root), so `path_to` follows canonical paths.  The
    `frontier` holds the members first reached at `depth` in canonical-path
    order: shortest path first, then the lexicographically smallest.
    `complete` holds while every step image computed so far factored
    completely.
    """

    root: int
    depth: int
    parents: Mapping[int, int | None]
    frontier: tuple[int, ...]
    complete: bool = True

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.parents)

    @property
    def ordered_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.parents))

    @property
    def saturated(self) -> bool:
        """Nothing new appeared and every factorization so far finished."""
        return not self.frontier and self.complete

    def path_to(self, member: int) -> tuple[int, ...]:
        """The canonical prime path from the root to a member."""
        path = [member]
        while self.parents[path[-1]] is not None:
            path.append(self.parents[path[-1]])
        return tuple(reversed(path))


def initial_state(p: int) -> ClosureState:
    if p <= 7:
        raise ValueError(f"closure roots must be primes > 7, got {p}")
    if not arith.is_prime(p):
        raise ValueError(f"closure roots must be prime, got {p}")
    return ClosureState(root=p, depth=0, parents={p: None}, frontier=(p,))


def expand(
    state: ClosureState,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: FactorCache | None = None,
) -> ClosureState:
    """One breadth-first layer: add the step image of the frontier.

    Only the frontier is stepped; every older member's image is already
    in the closure.  Paths of equal length order by their parents' paths
    first, so visiting the frontier in canonical order, each member's new
    children in ascending order, makes the first member to reach a new
    prime its canonical parent and lists the new frontier in canonical
    order again.
    """
    complete = state.complete
    parents = dict(state.parents)
    frontier: list[int] = []
    for x in state.frontier:
        if x <= 7:
            continue
        children, finished = cyclotomic_children(x, budget, cache)
        complete = complete and finished
        for child in sorted(children - parents.keys()):
            parents[child] = x
            frontier.append(child)

    bad = _FORBIDDEN_MEMBERS.intersection(frontier)
    if bad:
        raise AssertionError(f"forbidden primes {sorted(bad)} reached the closure of {state.root}")
    return ClosureState(state.root, state.depth + 1, parents, tuple(frontier), complete)


@dataclass(frozen=True)
class GoodnessCertificate:
    """A replayable witness that `root` is good.

    `path` lists edges (x, x^2 + x + 1, next) from the root to the
    terminal; an empty path means the root itself is a goal prime.
    """

    root: int
    path: tuple[tuple[int, int, int], ...]
    terminal: int
    terminal_residue: int

    @property
    def depth(self) -> int:
        return len(self.path)

    def to_dict(self) -> dict:
        return {
            "root": dec(self.root),
            "path": [[dec(a), dec(v), dec(b)] for a, v, b in self.path],
            "terminal": dec(self.terminal),
            "terminal_residue": dec(self.terminal_residue),
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "GoodnessCertificate":
        return cls(
            root=undec(data["root"]),
            path=tuple((undec(a), undec(v), undec(b)) for a, v, b in data["path"]),
            terminal=undec(data["terminal"]),
            terminal_residue=undec(data["terminal_residue"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "GoodnessCertificate":
        return cls.from_dict(json.loads(text))


def certificate_for(state: ClosureState, member: int) -> GoodnessCertificate:
    """Certificate along the canonical path from the state's root to member."""
    path = state.path_to(member)
    edges = tuple((a, arith.cyclotomic_value(3, a), b) for a, b in zip(path, path[1:]))
    return GoodnessCertificate(
        root=state.root,
        path=edges,
        terminal=member,
        terminal_residue=member % GOAL_MODULUS,
    )


class CertificateCheck(NamedTuple):
    ok: bool
    failure: str | None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: GoodnessCertificate) -> CertificateCheck:
    """Replay a certificate from scratch; no cache, no factorizer.

    Every edge is recomputed: the value x^2 + x + 1, the divisibility,
    the primality of both endpoints, and the 3-exclusion; then the
    terminal and its residue are checked.  The first failing condition
    is named in the result.
    """

    def fail(reason: str) -> CertificateCheck:
        return CertificateCheck(False, reason)

    if cert.root <= 7:
        return fail(f"root {cert.root} is not > 7")
    if not arith.is_prime(cert.root):
        return fail(f"root {cert.root} is not prime")
    expected_from = cert.root
    for i, (a, value, b) in enumerate(cert.path):
        if a != expected_from:
            return fail(f"edge {i} starts at {a}, expected {expected_from}")
        if a <= 7:
            return fail(f"edge {i} steps from {a}, which is not > 7")
        if not arith.is_prime(a):
            return fail(f"edge {i} steps from composite {a}")
        if value != a * a + a + 1:
            return fail(f"edge {i} claims value {value}, recomputed {a * a + a + 1}")
        if b == 3:
            return fail(f"edge {i} lands on the excluded prime 3")
        if not arith.is_prime(b):
            return fail(f"edge {i} lands on composite {b}")
        if value % b != 0:
            return fail(f"edge {i}: {b} does not divide {value}")
        expected_from = b
    if cert.terminal != expected_from:
        return fail(f"terminal {cert.terminal} does not match path end {expected_from}")
    if cert.terminal_residue != cert.terminal % GOAL_MODULUS:
        return fail(
            f"terminal residue {cert.terminal_residue} is not {cert.terminal} mod {GOAL_MODULUS}"
        )
    if cert.terminal_residue not in GOAL_RESIDUES:
        return fail(f"terminal residue {cert.terminal_residue} is not a goal residue")
    return CertificateCheck(True, None)


@dataclass(frozen=True)
class GoodnessResult:
    verdict: str
    certificate: GoodnessCertificate | None
    state: ClosureState

    @property
    def good(self) -> bool:
        return self.verdict == GOOD

    @property
    def depth(self) -> int | None:
        return self.certificate.depth if self.certificate else None


def is_good(
    p: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: FactorCache | None = None,
) -> GoodnessResult:
    """Decide goodness of the prime p > 7 within the budget.

    Returns the canonical certificate on success (minimal depth, then
    lexicographically smallest path): the first goal prime on the first
    frontier holding one, since each frontier is in canonical order.
    `not_good` is only reported for a genuinely saturated closure: no new
    members and every factorization complete.  Anything cut short by the
    depth or factoring budget is `inconclusive`.
    """
    state = initial_state(p)
    while True:
        for member in state.frontier:
            if member % GOAL_MODULUS in GOAL_RESIDUES:
                return GoodnessResult(GOOD, certificate_for(state, member), state)
        if state.saturated:
            return GoodnessResult(NOT_GOOD, None, state)
        if state.depth >= budget.max_depth:
            return GoodnessResult(INCONCLUSIVE, None, state)
        state = expand(state, budget, cache)


@dataclass(frozen=True)
class SweepEntry:
    prime: int
    verdict: str
    depth: int | None
    certificate: GoodnessCertificate | None

    def to_dict(self) -> dict:
        return {
            "prime": dec(self.prime),
            "verdict": self.verdict,
            "depth": dec(self.depth) if self.depth is not None else None,
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


@dataclass(frozen=True)
class SweepReport:
    limit: int
    entries: tuple[SweepEntry, ...]

    @property
    def all_good(self) -> bool:
        return all(entry.verdict == GOOD for entry in self.entries)

    def counts(self) -> dict[str, int]:
        out = {GOOD: 0, NOT_GOOD: 0, INCONCLUSIVE: 0}
        for entry in self.entries:
            out[entry.verdict] += 1
        return out

    def to_json_lines(self) -> str:
        lines = [canonical_dumps(entry.to_dict()) for entry in self.entries]
        summary = {"limit": dec(self.limit), "primes": dec(len(self.entries))}
        summary.update({k: dec(v) for k, v in sorted(self.counts().items())})
        lines.append(canonical_dumps(summary))
        return "\n".join(lines) + "\n"


def goodness_sweep(
    limit: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    cache: FactorCache | None = None,
) -> SweepReport:
    """Goodness verdict for every prime p with 7 < p < limit, in prime order.

    Inconclusive verdicts are reported, never hidden.
    """
    if limit < 11:
        raise ValueError(f"sweep limit must be at least 11, got {limit}")
    entries = []
    for p in arith.primes_up_to(limit - 1):
        if p > 7:
            result = is_good(p, budget, cache)
            entries.append(SweepEntry(p, result.verdict, result.depth, result.certificate))
    return SweepReport(limit=limit, entries=tuple(entries))
