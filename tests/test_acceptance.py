"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The whole module finishes in well under a minute on a
desktop machine; the dominant cost is the one shared run of the
criterion-8 scans, most of it the goodness annotation of the 1e10
cyclotomic-form scan.
"""

import hashlib
import json

import numpy as np
import pytest

from goodprimes.arith import primes_up_to, sigma_prime_power, valuation
from goodprimes.factor import DEFAULT_BUDGET
from goodprimes.goodness import (
    GOOD,
    GoodnessCertificate,
    expand,
    goodness_sweep,
    initial_state,
    is_good,
    verify_certificate,
)
from goodprimes.jsonio import canonical_dumps
from goodprimes.oracles import beta_feasible, cyclotomic_divides_sigma, sigma_exact_power
from goodprimes.scan import scan_cyclotomic_form, scan_odd_perfect, scan_squarefree_form

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


def _announce(number, label, passed):
    print(f"CRITERION {number:>2} {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({label}) failed"


def _chain_states_13():
    state = initial_state(13)
    states = [state]
    for _ in range(7):
        state = expand(state, DEFAULT_BUDGET)
        states.append(state)
    return states


def test_criterion_01_chain_regression_13():
    states = _chain_states_13()
    ok = all(states[d].members == expected for d, expected in S13.items())
    ok = ok and states[6].members >= R6 and states[7].members >= R7
    _announce(1, "chain regression from 13", ok)


def test_criterion_02_chain_regression_31():
    result = is_good(31)
    ok = (
        result.good
        and result.depth == 1
        and result.certificate.terminal == 331
        and result.certificate.terminal_residue == 2
        and 331 % 7 == 2
    )
    _announce(2, "chain regression from 31", ok)


def test_criterion_03_goodness_below_160():
    report = goodness_sweep(160)
    counts = report.counts()
    ok = counts[GOOD] == len(report.entries) == 33  # 33 primes in (7, 160)
    ok = ok and counts["inconclusive"] == 0 and counts["not_good"] == 0
    ok = ok and all(verify_certificate(entry.certificate) for entry in report.entries)
    _announce(3, "every prime below 160 is good", ok)


def _oracle_grid():
    primes = primes_up_to(49)
    for q in primes:
        if q == 2:
            continue
        for p in primes:
            if p == q:
                continue
            for c in range(1, 31):
                direct = valuation(q, sigma_prime_power(p, c))
                for b in range(1, 7):
                    yield q, b, p, c, direct


def test_criterion_04_divisibility_oracle_equivalence():
    mismatches = sum(
        1
        for q, b, p, c, direct in _oracle_grid()
        if sigma_exact_power(q, b, p, c).holds != (direct == b)
    )
    _announce(4, "exact-divisibility oracle equivalence", mismatches == 0)


def test_criterion_05_exponent_feasibility_window():
    feasible = [beta for beta in range(1, 101) if beta_feasible(beta)]
    _announce(5, "feasible exponents are exactly {1, 2}", feasible == [1, 2])


def test_criterion_06_cyclotomic_value_properties():
    x = np.arange(1, 10**6 + 1, dtype=np.int64)
    phi = x * x + x + 1
    ok = bool((phi % 2 == 1).all())
    ok = ok and bool((phi % 5 != 0).all())
    sieve = np.ones(10**6 + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1001):
        if sieve[p]:
            sieve[p * p :: p] = False
    prime_phi = phi[sieve[1:]]
    powers_of_3 = np.array([3**k for k in range(1, 27)], dtype=np.int64)
    ok = ok and not bool(np.isin(prime_phi, powers_of_3).any())
    _announce(6, "x^2+x+1 odd, never 0 mod 5, never a 3-power", ok)


def test_criterion_07_cyclotomic_divides_sigma_step():
    ok = all(cyclotomic_divides_sigma(q, k) for q in primes_up_to(999) for k in range(21))
    _announce(7, "q^2+q+1 divides sigma(q^(6k+2))", ok)


@pytest.fixture(scope="module")
def desk_scans():
    """The three criterion-8 reports, computed once for criteria 8 and 10."""
    return scan_odd_perfect(10**7), scan_squarefree_form(10**8), scan_cyclotomic_form(10**10)


def test_criterion_08_desk_scale_scans(desk_scans):
    odd, squarefree, cyclo = desk_scans
    ok = odd.perfect_found == (6, 28, 496, 8128) and odd.counterexamples == ()
    ok = ok and squarefree.counterexamples == ()
    ok = ok and cyclo.counterexamples == ()
    _announce(8, "bounded non-existence scans are clean", ok)


def test_cyclotomic_scan_1e10_digest(desk_scans):
    # the aim-1 scan, pinned alone so that a change to it is named
    digest = hashlib.sha256(desk_scans[2].to_json().encode()).hexdigest()
    assert digest == "47fea4e66b916f3538490ed58db6ee991e57d5eb309b31166570dee7fea6ae89"


def _tamper(value: int) -> int:
    return value ^ 1


def _tampered_variants(cert: GoodnessCertificate):
    data = cert.to_dict()
    fields = ["root", "terminal", "terminal_residue"]
    for name in fields:
        mutated = json.loads(json.dumps(data))
        mutated[name] = str(_tamper(int(mutated[name])))
        yield name, mutated
    for i in range(len(data["path"])):
        for j in range(3):
            mutated = json.loads(json.dumps(data))
            mutated["path"][i][j] = str(_tamper(int(mutated["path"][i][j])))
            yield f"path[{i}][{j}]", mutated


def test_criterion_09_certificate_roundtrip_and_tampering():
    certificates = []
    for p in primes_up_to(10**4):
        if p <= 7:
            continue
        result = is_good(p)
        if result.good:
            certificates.append(result.certificate)
        if len(certificates) == 100:
            break
    ok = len(certificates) == 100
    for cert in certificates:
        text = cert.to_json()
        reloaded = GoodnessCertificate.from_json(text)
        ok = ok and reloaded == cert and reloaded.to_json() == text
        ok = ok and bool(verify_certificate(reloaded))
        for _, mutated in _tampered_variants(cert):
            ok = ok and not verify_certificate(GoodnessCertificate.from_dict(mutated))
    _announce(9, "100 certificates round-trip; tampering detected", ok)


def _structured_outputs(desk_scans) -> str:
    lines = []
    # criterion 1: member sets per depth
    for state in _chain_states_13():
        lines.append(
            canonical_dumps({"depth": str(state.depth), "members": [str(m) for m in sorted(state.members)]})
        )
    # criterion 2
    result = is_good(31)
    lines.append(result.certificate.to_json())
    # criterion 3
    lines.append(goodness_sweep(160).to_json_lines().rstrip("\n"))
    # criterion 4: full witness grid
    for q, b, p, c, direct in _oracle_grid():
        w = sigma_exact_power(q, b, p, c)
        lines.append(
            canonical_dumps(
                {
                    "q": str(q), "b": str(b), "p": str(p), "c": str(c),
                    "branch": w.branch, "d": str(w.d), "a": str(w.a),
                    "holds": w.holds, "direct": direct == b,
                }
            )
        )
    # criterion 5
    lines.append(canonical_dumps({"feasible": [str(b) for b in range(1, 101) if beta_feasible(b)]}))
    # criterion 6: aggregate booleans
    x = np.arange(1, 10**6 + 1, dtype=np.int64)
    phi = x * x + x + 1
    lines.append(
        canonical_dumps(
            {"all_odd": bool((phi % 2 == 1).all()), "none_mod5": bool((phi % 5 != 0).all())}
        )
    )
    # criterion 7
    lines.append(
        canonical_dumps(
            {"divides": all(cyclotomic_divides_sigma(q, k) for q in primes_up_to(999) for k in range(21))}
        )
    )
    # criterion 8
    lines.extend(report.to_json() for report in desk_scans)
    return "\n".join(lines) + "\n"


# sha256 of _structured_outputs() under the default budget; any change to
# the canonical outputs must change this constant and say why
STRUCTURED_OUTPUTS_SHA256 = "cb343ade79a86a36a7d7e8344a9ae0c6556a2f2d5ee02d4e96a8bd73e4c5f7f2"


def test_criterion_10_determinism_across_jobs(desk_scans):
    digest = hashlib.sha256(_structured_outputs(desk_scans).encode()).hexdigest()
    _announce(10, "structured outputs match the pinned digest", digest == STRUCTURED_OUTPUTS_SHA256)
