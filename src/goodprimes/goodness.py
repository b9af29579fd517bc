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
kept in that canonical-path order, so the search ranks no paths: it
stops at the first goal prime met, on a partial layer.  That order is
the budget's, so a certificate is canonical relative to the budget, and
without qualification when every step taken factored completely or, at
the goal, was proved to have found every prime below it.
`verify_certificate` replays a certificate from scratch, without the
factorizer, so a verified certificate stands on its own.

Two facts keep the closure clean, and are asserted on each stepped layer:
x^2 + x + 1 is always odd and never divisible by 5, so the primes 2 and
5 can never enter a closure; 3 is excluded by the step definition.  A
member equal to 7 can occur and simply stays inert (the step map is
defined for primes > 7 only).
"""

import json
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, NamedTuple

from . import arith, factor
from .factor import DEFAULT_BUDGET, SearchBudget
from .jsonio import canonical_dumps, dec, undec

GOAL_MODULUS = 7
GOAL_RESIDUES = frozenset({2, 4})

GOOD = "good"
NOT_GOOD = "not_good"
INCONCLUSIVE = "inconclusive"

_FORBIDDEN_MEMBERS = frozenset({2, 3, 5})
_stages = partial(factor._stages, step=True)  # see `_step`


@dataclass(frozen=True)
class ClosureState:
    """The closure of `root` after `depth` layers.

    `parents` maps each member to the member it was first reached from
    (None for the root), so `path_to` follows canonical paths.  The
    `frontier` holds the members first reached at `depth` in canonical-path
    order: shortest path first, then the lexicographically smallest.
    `complete` holds while every step taken was settled (`_step`): it
    factored completely or, where it stopped at s, found every prime below s.
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
        raise ValueError(f"{p} is not a prime greater than 7")
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return ClosureState(root=p, depth=0, parents={p: None}, frontier=(p,))


def expand(state: ClosureState, budget: SearchBudget = DEFAULT_BUDGET) -> ClosureState:
    """One breadth-first layer: add the step image of the frontier.

    Only the frontier is stepped; every older member's image is already
    in the closure.  Paths of equal length order by their parents' paths
    first, so visiting the frontier in canonical order, each member's new
    children in ascending order, makes the first member to reach a new
    prime its canonical parent and lists the new frontier in canonical
    order again.
    """
    return _step(state, budget)[0]


def _step(state: ClosureState, budget: SearchBudget, stop=None) -> tuple[ClosureState, int | None]:
    """`expand`, but stop at the first new child s with `stop(s, depth)`
    and return it with the state, which then ends on a partial layer.

    Each x^2 + x + 1 is factored once (`factor._stages`), drawn before each splitter
    call and last, until a draw settles the step: it is complete or, with `stop`,
    its cofactor (every part left: untried, failed or too wide) has no prime divisor
    between the trial-division bound and s, so every prime below s was found and no
    later splitter call could change the step.  A step that no draw settles clears
    `complete`.  Trial division screens by 3 and the primes = 1 (mod 6) alone, which
    gives `factorize`'s draws.
    """
    complete = state.complete
    parents = dict(state.parents)
    frontier: list[int] = []
    hit, depth = None, state.depth + 1
    for x in state.frontier:
        if x <= 7:
            continue
        for result in _stages(arith.cyclotomic_value(x), budget):
            children = sorted(result.prime_divisors - parents.keys() - {3})
            hit = next((c for c in children if stop(c, depth)), None) if stop else None
            if result.complete or hit and factor._no_factor_between(result.cofactor, budget.trial_division_bound, hit):
                break
        else:
            complete = False
        if result.complete and result.prime_divisors <= {3}:
            raise AssertionError(f"x^2+x+1 reduced to a power of 3 at x={x}")
        taken = children[: children.index(hit) + 1] if hit else children
        for child in taken:
            parents[child] = x
        frontier += taken
        if hit:
            break

    bad = _FORBIDDEN_MEMBERS.intersection(frontier)
    if bad:
        raise AssertionError(f"forbidden primes {sorted(bad)} reached the closure of {state.root}")
    return ClosureState(state.root, depth, parents, tuple(frontier), complete), hit


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
        if not isinstance(data, dict):
            raise ValueError(f"a certificate is a JSON object, not {type(data).__name__}")
        keys = {"root", "path", "terminal", "terminal_residue"}
        for kind, wrong in (("unknown", set(data) - keys), ("missing", keys - set(data))):
            if wrong:
                raise ValueError(f"{kind} certificate keys {sorted(wrong)}")
        if not isinstance(path := data["path"], list) or not all(isinstance(e, list) and len(e) == 3 for e in path):
            raise ValueError("a certificate path is a list of [x, x^2 + x + 1, next] lists")
        return cls(
            root=undec(data["root"]),
            path=tuple((undec(a), undec(v), undec(b)) for a, v, b in path),
            terminal=undec(data["terminal"]),
            terminal_residue=undec(data["terminal_residue"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "GoodnessCertificate":
        try:
            data = json.loads(text)
        except RecursionError:  # json's parser recurses once per nested array or object
            raise ValueError("certificate JSON is nested too deeply") from None
        return cls.from_dict(data)


def certificate_for(state: ClosureState, member: int) -> GoodnessCertificate:
    """Certificate along the canonical path from the state's root to member."""
    path = state.path_to(member)
    edges = tuple((a, arith.cyclotomic_value(a), b) for a, b in zip(path, path[1:]))
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
    """Replay a certificate from scratch; no factorizer.

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
    """A verdict, its certificate when good, and the closure searched:
    when good, `state` ends on a partial layer at the terminal."""

    verdict: str
    certificate: GoodnessCertificate | None
    state: ClosureState

    @property
    def good(self) -> bool:
        return self.verdict == GOOD

    @property
    def depth(self) -> int | None:
        return self.certificate.depth if self.certificate else None


def _search(p: int, budget: SearchBudget, known: Mapping[int, int]) -> tuple[str, ClosureState, int | None]:
    """Search from p to the first member m, reached at depth k, that is a
    goal prime or has `known[m] + k <= max_depth`; (verdict, state, m)."""

    def stop(m: int, k: int) -> bool:
        return m % GOAL_MODULUS in GOAL_RESIDUES or known.get(m, budget.max_depth + 1) + k <= budget.max_depth

    state = initial_state(p)
    if stop(p, 0):
        return GOOD, state, p
    while True:
        if state.saturated:
            return NOT_GOOD, state, None
        if state.depth >= budget.max_depth:
            return INCONCLUSIVE, state, None
        state, hit = _step(state, budget, stop)
        if hit is not None:
            return GOOD, state, hit


def is_good(p: int, budget: SearchBudget = DEFAULT_BUDGET) -> GoodnessResult:
    """Decide goodness of the prime p > 7 within the budget.

    Returns the canonical certificate on success (minimal depth, then
    lexicographically smallest path): the first goal prime met, since
    each layer is walked in canonical order.  The search stops there, so
    `state` ends on a partial layer.  The certificate is canonical
    relative to the budget, and without qualification when
    `result.state.complete` holds: every step taken was settled, by a
    complete factorization or, at the goal, a proof that it found every
    prime below it.
    `not_good` is only reported for a genuinely saturated closure: no new
    members and every factorization complete.  Anything cut short by the
    depth or factoring budget is `inconclusive`.
    """
    verdict, state, goal = _search(p, budget, {})
    certificate = certificate_for(state, goal) if goal is not None else None
    return GoodnessResult(verdict, certificate, state)


def goodness_verdicts(primes, budget: SearchBudget = DEFAULT_BUDGET) -> dict[int, str]:
    """`is_good(q, budget).verdict` for each prime q > 7, with no certificates.

    A step depends only on (x, budget), so two shortcuts are sound.  A
    table, kept for this call only, maps primes to the length of some
    path from them to a goal; a search also stops at a member m reached
    at depth k with `known[m] + k <= max_depth`, and each good records
    its winning path.  Each prime is first searched with a rho cap of 1
    (no ECM), which trial-divides alike and gives rho one Brent round, the
    budget's own first round: its step images are subsets of the budget's,
    so only a good from that pass is taken.
    """
    quick = replace(budget, rho_iteration_cap=1)
    passes = (quick,) if quick == budget else (quick, budget)
    known: dict[int, int] = {}
    verdicts = {}
    for q in primes:
        for pass_budget in passes:
            verdict, state, hit = _search(q, pass_budget, known)
            if verdict == GOOD:
                path = state.path_to(hit)
                length = len(path) - 1 + known.get(hit, 0)
                for i, m in enumerate(path):
                    known[m] = min(length - i, known.get(m, length))
                break
        verdicts[q] = verdict
    return verdicts


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


def goodness_sweep(limit: int, budget: SearchBudget = DEFAULT_BUDGET) -> SweepReport:
    """Goodness verdict for every prime p with 7 < p < limit, in prime order.

    Inconclusive verdicts are reported, never hidden.
    """
    if limit < 11:
        raise ValueError(f"sweep limit must be at least 11, got {limit}")
    entries = []
    for p in arith.primes_up_to(limit - 1):
        if p > 7:
            result = is_good(p, budget)
            entries.append(SweepEntry(p, result.verdict, result.depth, result.certificate))
    return SweepReport(limit=limit, entries=tuple(entries))
