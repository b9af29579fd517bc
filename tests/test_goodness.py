import json

import pytest
import sympy

from goodprimes.factor import SearchBudget
from goodprimes.goodness import (
    GOOD,
    INCONCLUSIVE,
    GoodnessCertificate,
    certificate_for,
    cyclotomic_children,
    expand,
    goodness_sweep,
    initial_state,
    is_goal_prime,
    is_good,
    verify_certificate,
)

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
    assert is_goal_prime(331)  # 331 = 2 mod 7
    assert is_goal_prime(79)
    assert is_goal_prime(11)  # 11 = 4 mod 7
    assert not is_goal_prime(13)  # 6 mod 7
    assert not is_goal_prime(7)  # 0 mod 7
    with pytest.raises(ValueError):
        is_goal_prime(12)


def test_step_map_examples():
    assert cyclotomic_children(13) == (frozenset({61}), True)
    assert cyclotomic_children(31) == (frozenset({331}), True)
    assert cyclotomic_children(61) == (frozenset({13, 97}), True)


def test_step_map_rejects_bad_input():
    for bad in (7, 5, 9, 15):
        with pytest.raises(ValueError):
            cyclotomic_children(bad)


def test_step_map_partial_budget_may_be_empty():
    # with no useful budget the factorization cannot finish
    starved = SearchBudget(trial_division_bound=2, rho_iteration_cap=1, max_candidate_bits=8)
    children, complete = cyclotomic_children(3348577, starved)
    assert not complete
    assert children == frozenset()


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

    def counting(x, *args):
        calls.append(x)
        return cyclotomic_children(x, *args)

    monkeypatch.setattr(goodness, "cyclotomic_children", counting)
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
    for p in sympy.primerange(8, 400):
        result = is_good(p)
        assert result.good, p
        state = result.state
        paths = shortest_paths(p, state.depth)
        assert state.members == paths.keys(), p
        goals = [min(paths[m]) for m in paths if is_goal_prime(m)]
        cert_path = (p,) + tuple(edge[2] for edge in result.certificate.path)
        assert cert_path == min(goals, key=lambda path: (len(path), path)), p
        for m in state.members:
            assert state.path_to(m) == min(paths[m]), (p, m)
        layer = [m for m in paths if len(paths[m][0]) == state.depth + 1]
        assert state.frontier == tuple(sorted(layer, key=lambda m: min(paths[m]))), p


def test_certificate_rejects_non_ascii_digits():
    text = is_good(31).certificate.to_json().replace('"root":"31"', '"root":"\u0663\u0661"')
    assert json.loads(text)["root"] == "\u0663\u0661"
    with pytest.raises(ValueError):
        GoodnessCertificate.from_json(text)


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
    starved = SearchBudget(trial_division_bound=2, rho_iteration_cap=1, max_candidate_bits=8, max_depth=2)
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
