import ast
import inspect
import io
import json
import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy

from goodprimes import arith, cli, factor, goodness
from goodprimes.factor import Factorization, SearchBudget
from goodprimes.goodness import (
    GOAL_MODULUS,
    GOAL_RESIDUES,
    GOOD,
    INCONCLUSIVE,
    NOT_GOOD,
    GoodnessCertificate,
    certificate_for,
    expand,
    goodness_sweep,
    goodness_verdicts,
    initial_state,
    is_good,
    verify_certificate,
)
from goodprimes.jsonio import dec

# the published chain from 13, frozen
S13 = {
    0: {13},
    1: {13, 61},
    2: {13, 61, 97},
    3: {13, 61, 97, 3169},
    4: {13, 61, 97, 3169, 3348577},
    5: {13, 61, 97, 3169, 3348577, 3737657091169},
}
R6 = S13[5] | {181}
R7 = R6 | {79, 139}


def grow(p, depth, budget=SearchBudget()):
    state = initial_state(p)
    states = [state]
    for _ in range(depth):
        state = expand(state, budget)
        states.append(state)
    return states


def test_goal_predicate():
    # a goal prime is 2 or 4 mod 7, and a goal root is its own certificate
    for p in (331, 79, 11):  # 331 = 2 mod 7, 11 = 4 mod 7
        assert p % GOAL_MODULUS in GOAL_RESIDUES and is_good(p).depth == 0, p
    for p in (13, 7):  # 6 and 0 mod 7
        assert p % GOAL_MODULUS not in GOAL_RESIDUES, p
    assert is_good(13).depth > 0


def test_step_map_examples():
    # the first layer of {x}: the prime divisors of x^2 + x + 1 other than 3, ascending
    for x, children in ((13, (61,)), (31, (331,)), (61, (13, 97))):
        state = expand(initial_state(x))
        assert (state.frontier, state.complete) == (children, True), x


def test_step_map_matches_sympy():
    for x in sympy.primerange(11, 500):
        expected = tuple(sorted(set(sympy.primefactors(x * x + x + 1)) - {3}))
        state = expand(initial_state(x))
        assert (state.frontier, state.complete) == (expected, True), x


def test_step_map_rejects_bad_input():
    for bad in (7, 5, 9, 12, 15):
        with pytest.raises(ValueError):
            expand(initial_state(bad))


def test_step_map_partial_budget_may_be_empty():
    # with no useful budget the factorization cannot finish: of 61^2 + 61 + 1
    # = 3 * 13 * 97, one Brent round splits off the 3 (gcd(21, m)), not 13 * 97
    starved = SearchBudget(trial_division_bound=2, rho_iteration_cap=1)
    state = expand(initial_state(61), starved)
    assert not state.complete
    assert state.frontier == ()


def test_chain_13_exact_to_depth_5():
    states = grow(13, 5)
    for depth, expected in S13.items():
        assert states[depth].members == expected, depth
        assert states[depth].depth == depth


def test_chain_13_supersets_at_6_and_7():
    states = grow(13, 7)
    assert states[6].members >= R6
    assert states[7].members >= R7


def test_expand_monotone_and_forbidden_free():
    states = grow(13, 7) + grow(11, 3) + grow(83, 4)
    for previous, current in zip(states, states[1:]):
        if current.depth == 0:
            continue  # boundary between different roots
        assert previous.members <= current.members
    for state in states:
        assert not state.members & {2, 3, 5}


def test_expand_saturated_fixpoint():
    from goodprimes.goodness import ClosureState

    # a frontier whose members are all inert (7 is never stepped) cannot
    # grow: expanding marks it saturated and leaves the members unchanged
    state = ClosureState(root=11, depth=1, parents={7: None}, frontier=(7,))
    after = expand(state)
    assert after.saturated
    assert after.members == state.members
    assert expand(after).members == after.members


def test_expand_steps_only_the_frontier(monkeypatch):
    from goodprimes import goodness

    calls = []
    stages = goodness._stages

    def counting(value, budget):
        calls.append(math.isqrt(value))  # x, from x^2 + x + 1
        return stages(value, budget)

    monkeypatch.setattr(goodness, "_stages", counting)
    states = grow(13, 5)
    assert states[5].members == S13[5]
    # the chain from 13 adds one member per layer, so each layer steps one
    assert calls == [13, 61, 97, 3169, 3348577]


def test_expand_incomplete_inert_frontier_is_not_saturated():
    from goodprimes.goodness import ClosureState

    # 11^2 + 11 + 1 = 7 * 19: pretend 19 was missed by an incomplete
    # factorization, leaving only the inert 7 on the frontier
    state = ClosureState(
        root=11,
        depth=1,
        parents={11: None, 7: 11},
        frontier=(7,),
        complete=False,
    )
    after = expand(state)
    assert after.members == state.members
    assert not after.complete
    assert not after.saturated


def test_provenance_records_discovery():
    state = grow(13, 3)[-1]
    assert state.parents[3169] == 97
    assert state.frontier == (3169,)
    assert state.path_to(3169) == (13, 61, 97, 3169)


def shortest_paths(root, depth):
    """Every shortest step-map path from root to each member within depth
    layers, by plain breadth-first search over sympy's factorizations."""
    paths = {root: [(root,)]}
    layer = [root]
    for _ in range(depth):
        reached = {}
        for x in layer:
            if x <= 7:
                continue
            for q in sympy.factorint(x * x + x + 1):
                if q != 3 and q not in paths:
                    reached.setdefault(q, []).extend(path + (q,) for path in paths[x])
        paths.update(reached)
        layer = list(reached)
    return paths


def test_canonical_paths_match_reference_search():
    # ties occur: 83, 223, 337 and 367 have a member reached from two
    # parents in one layer, and for 19, 103, 127 and 293 the canonical
    # goal is not the smallest goal of its layer
    # is_good stops at its winner, so full layers come from expand
    for p in sympy.primerange(8, 400):
        result = is_good(p)
        assert result.good, p
        state = grow(p, result.depth)[-1]
        paths = shortest_paths(p, state.depth)
        assert state.members == paths.keys(), p
        goals = [min(paths[m]) for m in paths if m % GOAL_MODULUS in GOAL_RESIDUES]
        cert_path = (p,) + tuple(edge[2] for edge in result.certificate.path)
        assert cert_path == min(goals, key=lambda path: (len(path), path)), p
        for m in state.members:
            assert state.path_to(m) == min(paths[m]), (p, m)
        layer = [m for m in paths if len(paths[m][0]) == state.depth + 1]
        assert state.frontier == tuple(sorted(layer, key=lambda m: min(paths[m]))), p
        partial = result.state.frontier
        assert partial == state.frontier[: len(partial)], p
        assert partial[-1] == result.certificate.terminal, p


@pytest.mark.parametrize(
    "budget",
    [
        SearchBudget(),
        SearchBudget(max_depth=1),
        SearchBudget(max_depth=2),
        SearchBudget(max_depth=3),
        SearchBudget(rho_iteration_cap=10),
        SearchBudget(trial_division_bound=100),
        SearchBudget(trial_division_bound=100, rho_iteration_cap=10, max_depth=3),
        SearchBudget(trial_division_bound=1000, rho_iteration_cap=2**16 + 1),
        SearchBudget(rho_iteration_cap=1),
    ],
    ids=repr,
)
def test_verdicts_match_is_good(budget):
    primes = list(sympy.primerange(8, 5000))
    assert goodness_verdicts(primes, budget) == {q: is_good(q, budget).verdict for q in primes}


def test_verdicts_match_is_good_on_closed_graph(monkeypatch):
    # no real prime is not_good, so step a small graph with no goal
    # prime; both passes of goodness_verdicts go through this one map
    graph = {13: {17, 19}, 17: {13}, 19: {13, 17}, 29: {13}, 31: {29, 43}, 43: {29}}
    steps = {x * x + x + 1: tuple((q, 1) for q in sorted(graph[x])) for x in graph}
    monkeypatch.setattr(goodness, "_stages", lambda value, budget: iter([Factorization(value, steps[value], 1)]))
    for budget, verdict in ((SearchBudget(), NOT_GOOD), (SearchBudget(max_depth=1), INCONCLUSIVE)):
        expected = {q: is_good(q, budget).verdict for q in graph}
        assert expected == dict.fromkeys(graph, verdict)
        assert goodness_verdicts(graph, budget) == expected


def test_certificate_rejects_non_ascii_digits():
    text = is_good(31).certificate.to_json().replace('"root":"31"', '"root":"\u0663\u0661"')
    assert json.loads(text)["root"] == "\u0663\u0661"
    with pytest.raises(ValueError):
        GoodnessCertificate.from_json(text)


@pytest.mark.parametrize(
    "field, value", [("root", 31), ("terminal_residue", True), ("root", "031"), ("terminal", "-0")]
)
def test_certificate_rejects_non_canonical_integers(field, value):
    # every integer of the format is a canonical decimal string
    data = is_good(31).certificate.to_dict()
    data[field] = value
    with pytest.raises(ValueError):
        GoodnessCertificate.from_dict(data)


@pytest.mark.parametrize("path", [["789"], {"123": "1"}, [["31", "993"]], "31"], ids=repr)
def test_certificate_refuses_a_path_that_is_not_a_list_of_edges(path):
    # ["789"] used to unpack as the edge (7, 8, 9), and an object as the digits of its keys
    data = is_good(31).certificate.to_dict()
    with pytest.raises(ValueError, match="path"):
        GoodnessCertificate.from_dict({**data, "path": path})


@pytest.mark.parametrize("document", [[], ["root", "path", "terminal", "terminal_residue"], "31", 31, None], ids=repr)
def test_certificate_is_a_json_object(document):
    with pytest.raises(ValueError, match="JSON object"):
        GoodnessCertificate.from_dict(document)


def test_certificate_refuses_unknown_keys():
    # an added key would not round-trip to the canonical text, so it is refused
    text = is_good(31).certificate.to_json()
    assert GoodnessCertificate.from_json(text).to_json() == text
    with pytest.raises(ValueError, match="unknown certificate keys"):
        GoodnessCertificate.from_json(text[:-1] + ',"comment":"x"}')


@pytest.mark.parametrize("key", ["root", "path", "terminal", "terminal_residue"])
def test_certificate_refuses_missing_keys(key):
    # a lacking key used to raise KeyError, which `verify` printed as "cannot read certificate: 'path'"
    data = is_good(31).certificate.to_dict()
    del data[key]
    with pytest.raises(ValueError, match=rf"missing certificate keys \['{key}'\]"):
        GoodnessCertificate.from_dict(data)


def test_certificate_integers_must_be_integers():
    # dec(2.7) was "2", so a float certificate wrote the integer one's text
    with pytest.raises(TypeError):
        GoodnessCertificate(31.0, (), 31.0, 3.0).to_json()
    for bad in (2.7, 31.0, "31"):
        with pytest.raises(TypeError):
            dec(bad)
    assert [dec(v) for v in (31, -5, np.int64(31), sympy.Integer(31))] == ["31", "-5", "31", "31"]


def test_is_good_31():
    result = is_good(31)
    assert result.good
    assert result.depth == 1
    assert result.certificate.terminal == 331
    assert result.certificate.terminal_residue == 2
    assert result.certificate.path == ((31, 993, 331),)
    assert verify_certificate(result.certificate)


def test_is_good_13_canonical():
    result = is_good(13)
    assert result.good
    assert result.depth == 6
    assert result.certificate.terminal == 987900542491
    path_primes = (13,) + tuple(edge[2] for edge in result.certificate.path)
    assert path_primes == (13, 61, 97, 3169, 3348577, 3737657091169, 987900542491)
    assert verify_certificate(result.certificate)


def test_is_good_goal_at_root():
    result = is_good(11)
    assert result.good
    assert result.depth == 0
    assert result.certificate.path == ()
    assert result.certificate.terminal == 11
    assert verify_certificate(result.certificate)


def test_is_good_rejects_small_or_composite():
    for bad in (7, 3, 2, 9, 15):
        with pytest.raises(ValueError):
            is_good(bad)


def test_is_good_inconclusive_under_starved_budget():
    starved = SearchBudget(trial_division_bound=2, rho_iteration_cap=1, max_depth=2)
    result = is_good(13, starved)
    assert result.verdict == INCONCLUSIVE
    assert result.certificate is None


def test_certificate_roundtrip_bytes():
    cert = is_good(31).certificate
    text = cert.to_json()
    back = GoodnessCertificate.from_json(text)
    assert back == cert
    assert back.to_json() == text


def test_verify_rejects_tampering():
    cert = is_good(31).certificate
    ok = verify_certificate(cert)
    assert ok and ok.failure is None

    tampered = GoodnessCertificate(cert.root, ((31, 994, 331),), cert.terminal, cert.terminal_residue)
    check = verify_certificate(tampered)
    assert not check and "value" in check.failure

    tampered = GoodnessCertificate(29, cert.path, cert.terminal, cert.terminal_residue)
    assert not verify_certificate(tampered)

    tampered = GoodnessCertificate(cert.root, cert.path, 333, cert.terminal_residue)
    assert not verify_certificate(tampered)

    tampered = GoodnessCertificate(cert.root, cert.path, cert.terminal, 3)
    assert not verify_certificate(tampered)

    tampered = GoodnessCertificate(cert.root, ((31, 993, 3),), 3, 3 % 7)
    assert not verify_certificate(tampered)


def test_verify_needs_goal_terminal():
    # a true path that ends on a non-goal prime must not verify
    fake = GoodnessCertificate(13, ((13, 183, 61),), 61, 61 % 7)
    check = verify_certificate(fake)
    assert not check and "goal" in check.failure


def test_verify_root_membership_independent():
    result = is_good(19)
    state = initial_state(19)
    for _ in range(result.depth):
        state = expand(state)
    assert result.certificate.terminal in state.members


def test_sweep_small():
    report = goodness_sweep(32)
    verdicts = {entry.prime: (entry.verdict, entry.depth) for entry in report.entries}
    assert verdicts == {
        11: (GOOD, 0),
        13: (GOOD, 6),
        17: (GOOD, 4),
        19: (GOOD, 4),
        23: (GOOD, 0),
        29: (GOOD, 1),
        31: (GOOD, 1),
    }
    assert report.all_good
    for entry in report.entries:
        assert verify_certificate(entry.certificate)


def test_sweep_limit_12():
    report = goodness_sweep(12)
    assert [entry.prime for entry in report.entries] == [11]
    assert report.entries[0].verdict == GOOD
    assert report.entries[0].depth == 0


def test_sweep_rejects_small_limit():
    with pytest.raises(ValueError):
        goodness_sweep(10)


def test_sweep_json_lines_parse():
    report = goodness_sweep(20)
    lines = report.to_json_lines().strip().split("\n")
    assert len(lines) == len(report.entries) + 1
    for line in lines:
        json.loads(line)
    summary = json.loads(lines[-1])
    assert summary["good"] == str(len(report.entries))


def test_certificate_for_intermediate_member():
    state = grow(13, 3)[-1]
    cert = certificate_for(state, 97)
    assert cert.terminal == 97
    assert [edge[0] for edge in cert.path] == [13, 61]
    # 97 is not a goal prime, so the certificate must not verify
    assert not verify_certificate(cert)


def test_goodness_leaves_the_step_values_shape_to_factor():
    # only factor knows that every prime of x^2 + x + 1 but 3 is 1 (mod 6): goodness imports
    # no numpy at any depth, reaches into factor only for `_stages` and the range test, and
    # asks for the step table by a flag, not by handing factor a table
    tree = ast.parse(Path(goodness.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert "numpy" not in (name.split(".")[0] for name in names), f"numpy imported at line {node.lineno}"
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "factor"
    }
    assert {name for name in private if name.startswith("_")} == {"_stages", "_no_factor_between"}
    for function in (factor._stages, factor._trial_divide):
        assert "blocks" not in inspect.signature(function).parameters, function.__name__
    assert goodness._stages.keywords == {"step": True}


# 2^61 - 1 is prime, so it adds no divisor below the sieve limit
BIG = 2**61 - 1


def first_prime_1_mod_6(after):
    return next(q for q in sympy.primerange(after + 1, 2 * after + 20) if q % 6 == 1)


def test_range_check_finds_planted_primes():
    lo, s = 1000, 10**6
    above_lo = first_prime_1_mod_6(lo)
    below_s = sympy.prevprime(s)
    while below_s % 6 != 1:
        below_s = sympy.prevprime(below_s)
    assert factor._no_factor_between(BIG, lo, s)
    assert not factor._no_factor_between(above_lo * BIG, lo, s)
    assert not factor._no_factor_between(above_lo * BIG, above_lo - 1, s)
    assert not factor._no_factor_between(below_s * BIG, lo, s)
    assert not factor._no_factor_between(below_s * BIG, lo, below_s + 1)
    # the sieve keeps its own primes, up to 997, in the range
    for q, lo in ((7, 1), (13, 10), (31, 10), (997, 1)):
        assert not factor._no_factor_between(q * BIG, lo, s)
        assert factor._no_factor_between(q * BIG, q, s)


def test_range_check_segment_boundaries():
    # the k = 1 (mod 6) with lo < k < hi are sieved in segments of _SEGMENT;
    # place q first in the second segment, then last in the first
    span = 6 * factor._SEGMENT
    q = first_prime_1_mod_6(10**6 + span)
    for lo in (q - span - 1, q - span + 5):
        assert not factor._no_factor_between(q * BIG, lo, q + span)
        assert factor._no_factor_between(q * BIG, lo, q)


def test_range_check_matches_sympy():
    # True exactly when no prime k = 1 (mod 6) with lo < k < hi divides n;
    # a prime square p^2 = 1 (mod 6) with p <= 1000 must be sieved out
    rng = random.Random(6)
    span = 6 * factor._SEGMENT
    for _ in range(8):
        lo = rng.choice([1, 10, 999, rng.randrange(1, span)])
        hi = lo + rng.randrange(span, 3 * span)
        edges = [lo, lo + span, lo + 2 * span, hi, rng.randrange(lo, hi)]
        planted = [sympy.nextprime(e + rng.randrange(-30, 30)) for e in edges]
        for m in planted + [sympy.prime(rng.randrange(3, 169)) ** 2, 1]:
            n = m * BIG
            expected = not any(lo < d < hi and d % 6 == 1 for d in sympy.primefactors(n))
            assert factor._no_factor_between(n, lo, hi) == expected, (n, lo, hi)


def test_range_check_peak_memory():
    # one segment of 2^17 flags and the uint64 arrays of its survivors, about a quarter
    tracemalloc.start()
    try:
        assert factor._no_factor_between(BIG, 10**6, 5 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak


def test_range_check_ignores_primes_from_s_up():
    lo, s = 1000, first_prime_1_mod_6(10**5)
    assert factor._no_factor_between(s * BIG, lo, s)
    assert factor._no_factor_between(first_prime_1_mod_6(s) * s * BIG, lo, s)


def test_range_check_trivial_and_refused(monkeypatch):
    # nothing lies strictly between lo and s <= lo + 1
    for s in (50, 100, 101):
        assert factor._no_factor_between(103 * 109, 100, s)
    # above the sieve limit the check answers "not proved" and allocates nothing
    monkeypatch.setattr(factor, "np", None)
    assert not factor._no_factor_between(BIG, 10**6, arith.SIEVE_BOUND_LIMIT + 1)


def canonical_certificate(p, budget):
    """The first goal prime of the first full `expand` layer that has one."""
    state = initial_state(p)
    while True:
        goals = [m for m in state.frontier if m % GOAL_MODULUS in GOAL_RESIDUES]
        if goals or state.depth == budget.max_depth:
            return certificate_for(state, goals[0]) if goals else None
        state = expand(state, budget)


def test_stop_aware_step_keeps_canonical_certificates(monkeypatch):
    # the last budget leaves trial division so little that the segmented
    # range test, not only the s <= bound shortcut, decides steps
    budgets = [
        SearchBudget(trial_division_bound=100, rho_iteration_cap=10),
        SearchBudget(trial_division_bound=1000, rho_iteration_cap=2**16 + 1),
        SearchBudget(trial_division_bound=10, rho_iteration_cap=10),
    ]
    decided = []
    check = factor._no_factor_between

    def spy(n, lo, hi):
        proved = check(n, lo, hi)
        if proved:
            decided.append(hi > lo + 1)
        return proved

    monkeypatch.setattr(factor, "_no_factor_between", spy)
    for budget in budgets:
        for p in sympy.primerange(8, 400):
            assert is_good(p, budget).certificate == canonical_certificate(p, budget), (budget, p)
    assert decided and any(decided)


# certificates of the parent implementation, whose last step failed a full-cap rho
PINNED = {
    2477: '{"path":[["2477","6138007","323053"],["323053","104363563863","2675988817"],'
    '["2675988817","7160916151385048307","2386972050461682769"],'
    '["2386972050461682769","5697635569685250233739335929653190131","36691"]],'
    '"root":"2477","terminal":"36691","terminal_residue":"4"}',
    1328304987677: '{"path":[["1328304987677","1764394140288923426844007","1764394140288923426844007"],'
    '["1764394140288923426844007","3113086682285889202548047800811384553651738660057",'
    '"238495876985052417264080885682324718735289869"],'
    '["238495876985052417264080885682324718735289869",'
    '"56880283338869255292957253089132701541941170001502358920729043735381445250339794189327031",'
    '"51347167"]],"root":"1328304987677","terminal":"51347167","terminal_residue":"4"}',
}


@pytest.mark.parametrize("root", sorted(PINNED))
def test_stop_aware_step_skips_the_failed_rho(monkeypatch, root):
    from goodprimes import factor

    caps = []
    split = factor._rho_split

    def spy(n, cap):
        caps.append(cap)
        return split(n, cap)

    monkeypatch.setattr(factor, "_rho_split", spy)
    result = is_good(root)
    assert result.certificate.to_json() == PINNED[root]
    assert result.state.complete is True
    if root == 2477:
        assert caps == []  # each step settles on trial division, or on it and the range test
    else:
        assert caps and max(caps) <= factor._QUICK_CAP


def test_the_goal_step_settles_before_rho_meets_the_part_left(monkeypatch):
    # rho splits the goal child 51347167 off the last step's value; the range test on the
    # 248-bit part left then settles the step, so no splitter runs on that part at all
    root, goal = 1328304987677, 51347167
    events = []
    rho_split, ecm_split, no_factor_between = factor._rho_split, factor._ecm_split, factor._no_factor_between

    def spy(name, run, *args):
        events.append((name, args[0], result := run(*args)))
        return result

    monkeypatch.setattr(factor, "_rho_split", lambda m, cap: spy("rho", rho_split, m, cap))
    monkeypatch.setattr(factor, "_ecm_split", lambda m: spy("ecm", ecm_split, m))
    monkeypatch.setattr(
        factor, "_no_factor_between", lambda n, lo, hi: spy(("range", hi), no_factor_between, n, lo, hi)
    )
    result = is_good(root)
    assert result.certificate.to_json() == PINNED[root]
    assert result.state.complete is True
    assert [name for name, *_ in events] == ["rho", "rho", ("range", goal)]  # no splitter after it, no ECM
    assert None not in [divisor for name, _, divisor in events if name == "rho"]
    (_, part, settled) = events[-1]
    last_value = result.certificate.path[-1][1]
    assert settled and part.bit_length() == 248 and last_value % (goal * part) == 0


def test_verify_labels_a_certificate_on_a_probable_prime(monkeypatch, capsys):
    # this certificate's 148-bit edge prime is BPSW-probable, beyond Miller-Rabin's deterministic range
    probable = 238495876985052417264080885682324718735289869
    assert arith.primality(probable) == arith.PROBABLE_PRIME
    monkeypatch.setattr(sys, "stdin", io.StringIO(PINNED[1328304987677]))
    assert cli.main(["verify", "-"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "valid: 1328304987677 -> 51347167 (depth 3)  [primality: probable]\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(PINNED[2477]))
    assert cli.main(["verify", "-"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "valid: 2477 -> 36691 (depth 4)\n"


def test_quick_pass_primes_are_a_subset_of_the_full_budgets(monkeypatch):
    # ECM splits this root's 76-bit leftover, so the range test's premise
    # rests on ECM running only after the quick pass's 2^16 rho iterations
    calls = []
    split = factor._ecm_split
    monkeypatch.setattr(factor, "_ecm_split", lambda m: calls.append(m) or split(m))
    x = 1217689472431
    quick = expand(initial_state(x), SearchBudget(rho_iteration_cap=factor._QUICK_CAP))
    assert (quick.frontier, quick.complete, calls) == ((13,), False, [])
    full = expand(initial_state(x))
    assert full.complete and len(calls) == 1 and set(quick.frontier) < set(full.frontier)
    assert full.frontier == (13, 40375821481, 941644825327)
    assert is_good(x).certificate.to_json() == (
        '{"path":[["1217689472431","1482767651270504798522193","40375821481"]],'
        '"root":"1217689472431","terminal":"40375821481","terminal_residue":"2"}'
    )


def test_a_step_value_is_factored_once(monkeypatch):
    # the step from this root leaves a 76-bit part to ECM; it resumes the
    # first stage, so no part gets the 2^16 rho pass twice
    quick, ecm = [], []
    rho_split, ecm_split = factor._rho_split, factor._ecm_split

    def rho_spy(n, cap):
        if cap <= factor._QUICK_CAP:
            quick.append(n)
        return rho_split(n, cap)

    monkeypatch.setattr(factor, "_rho_split", rho_spy)
    monkeypatch.setattr(factor, "_ecm_split", lambda n: ecm.append(n) or ecm_split(n))
    assert is_good(1217689472431).certificate.terminal == 40375821481
    assert quick and len(quick) == len(set(quick))
    assert len(ecm) == 1 and ecm[0] in quick


# ---- the step draws factoring stages until one settles it -------------------

LOW = SearchBudget(trial_division_bound=10)  # the range test covers (10, s)


def goal(m, k):
    return m % 7 in (2, 4)


def fake_stages(monkeypatch, stages):
    """Make `_stages` yield, for x^2 + x + 1, one Factorization per (primes,
    cofactor) of stages[x]; returns the draws as (x, stage index)."""
    draws = []

    def fake(value, budget):
        x = math.isqrt(value)
        for i, (primes, cofactor) in enumerate(stages[x]):
            draws.append((x, i))
            yield Factorization(value, tuple((p, 1) for p in primes), cofactor)

    monkeypatch.setattr(goodness, "_stages", fake)
    return draws


# 19, 31 and 37 lie in (10, 79), so a cofactor with one of them leaves the
# goal child 79 unproved; 97 * 103 has no prime below 79.  Goals: 37, 79.
UNSETTLED = ((79,), 19 * 97)
SETTLED = ((19, 79), 97 * 103)


@pytest.mark.parametrize("settles_at", [0, 1, 2])
def test_step_draws_no_stage_after_the_one_that_settles_it(monkeypatch, settles_at):
    stages = [UNSETTLED] * settles_at + [SETTLED] + [((19, 37, 79), 1)] * (2 - settles_at)
    draws = fake_stages(monkeypatch, {13: stages, 17: [((43,), 1)]})
    state = goodness.ClosureState(11, 1, {11: None, 13: 11, 17: 11}, (13, 17))
    after, hit = goodness._step(state, LOW, goal)
    # 17 is never stepped: the step stopped at 13's goal child
    assert draws == [(13, i) for i in range(settles_at + 1)]
    assert (hit, after.frontier, after.complete) == (79, (19, 79), True)


def test_step_takes_children_up_to_the_hit_of_the_settling_stage(monkeypatch):
    # the second stage finds the smaller goal child 37, which becomes the hit
    draws = fake_stages(monkeypatch, {13: [UNSETTLED, ((19, 37, 61, 79), 97 * 103), SETTLED]})
    after, hit = goodness._step(initial_state(13), LOW, goal)
    assert (draws, hit, after.frontier, after.complete) == ([(13, 0), (13, 1)], 37, (19, 37), True)
    assert after.parents == {13: None, 19: 13, 37: 13}


def test_step_unsettled_by_every_stage_clears_complete(monkeypatch):
    draws = fake_stages(monkeypatch, {13: [UNSETTLED] * 3})
    after, hit = goodness._step(initial_state(13), LOW, goal)
    assert (len(draws), hit, after.frontier, after.complete) == (3, 79, (79,), False)


@pytest.mark.parametrize(
    "stages, drawn, complete",
    [
        ([UNSETTLED, ((19, 79, 97), 1), SETTLED], 2, True),
        ([UNSETTLED, UNSETTLED, ((19, 79, 97), 1)], 3, True),
        ([UNSETTLED, UNSETTLED, SETTLED], 3, False),  # no stop, so no range test
    ],
)
def test_expand_draws_until_complete_or_the_last_stage(monkeypatch, stages, drawn, complete):
    draws = fake_stages(monkeypatch, {13: stages})
    after = expand(initial_state(13), LOW)
    assert (len(draws), after.complete) == (drawn, complete)
    assert after.frontier == stages[drawn - 1][0]


def test_last_stage_settled_by_the_range_test_stays_complete(monkeypatch):
    # the last stage leaves a cofactor, but it has no prime between the
    # trial-division bound and the goal child, so every prime below the
    # goal was found; the step used to clear `complete` here
    fake_stages(monkeypatch, {13: [((19,), 31 * 97), SETTLED]})
    result = is_good(13, LOW)
    assert result.certificate.terminal == 79
    assert result.state.complete is True
