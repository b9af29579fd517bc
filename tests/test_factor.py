import collections
import dataclasses
import functools
import itertools
import math

import pytest
import sympy

from goodprimes import arith, factor, goodness
from goodprimes.arith import is_prime, primes_up_to
from goodprimes.factor import (
    DEFAULT_BUDGET,
    Factorization,
    SearchBudget,
    _brent,
    factorize,
)


def spf_table(limit):
    # smallest-prime-factor sieve: the trial-division oracle for all n < limit
    spf = list(range(limit))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def factor_by_spf(n, spf):
    counts = {}
    while n > 1:
        p = spf[n]
        counts[p] = counts.get(p, 0) + 1
        n //= p
    return tuple(sorted(counts.items()))


def test_examples():
    assert factorize(3783).factors == ((3, 1), (13, 1), (97, 1))
    assert factorize(32943).factors == ((3, 1), (79, 1), (139, 1))
    assert factorize(4).factors == ((2, 2),)
    assert factorize(4).complete


def test_agreement_with_trial_division_oracle():
    limit = 10**6
    spf = spf_table(limit)
    for n in range(2, limit):
        result = factorize(n)
        assert result.complete, n
        assert result.factors == factor_by_spf(n, spf), n


def test_reconstruction_random(rng):
    for _ in range(10_000):
        n = rng.randint(2, 10**12)
        result = factorize(n)
        assert result.complete, n
        primes = [p for p, _ in result.factors]
        assert primes == sorted(set(primes)), n
        assert all(is_prime(p) for p in primes), n
        assert math.prod(p**e for p, e in result.factors) == n


def test_determinism():
    budget = SearchBudget(trial_division_bound=100, rho_iteration_cap=10**6)
    n = 10**16 + 61
    a = factorize(n, budget)
    b = factorize(n, budget)
    assert a == b
    assert a.to_line() == b.to_line()


def test_known_factors_with_small_trial_bound():
    small = SearchBudget(trial_division_bound=1000, rho_iteration_cap=10**6)
    found = factorize(11212971273507, small).prime_divisors
    assert found >= {3, 3737657091169}
    big = 3737657091169**2 + 3737657091169 + 1
    found = factorize(big, SearchBudget(trial_division_bound=200, rho_iteration_cap=1)).prime_divisors
    assert 181 in found
    assert factorize(9).prime_divisors == frozenset({3})


def test_partial_results_respect_budget(tiny_budget):
    # a semiprime of two 10-digit primes: unreachable with 2 rho iterations
    p, q = 9576890767, 9576890821
    result = factorize(p * q, tiny_budget)
    assert not result.complete
    assert result.status == "exhausted"
    assert result.cofactor == p * q


def test_rho_ceiling_is_512_bits(monkeypatch):
    # semiprimes with no prime factor below the trial bound: rho gets the
    # 512-bit one, spends its cap, and never sees the 513-bit one
    calls = []
    split = factor._rho_split

    def spy(n, cap):
        calls.append(n.bit_length())
        return split(n, cap)

    monkeypatch.setattr(factor, "_rho_split", spy)
    budget = SearchBudget(rho_iteration_cap=10)
    wide = sympy.nextprime(2**256) * sympy.nextprime(2**256 + 2**128)
    assert wide.bit_length() == 513
    result = factorize(wide, budget)
    assert (result.status, result.cofactor, calls) == ("exhausted", wide, [])
    edge = sympy.nextprime(2**255) * sympy.nextprime(2**256)
    assert edge.bit_length() == 512
    result = factorize(edge, budget)
    assert (result.status, result.cofactor, calls) == ("exhausted", edge, [512])


def test_monotonicity_in_budget():
    n = 2 * 3 * 10_000_019 * 10_000_079
    found = set()
    for trial_bound in (10, 10**3, 10**5, 2 * 10**7):
        budget = SearchBudget(trial_division_bound=trial_bound, rho_iteration_cap=5)
        now = factorize(n, budget).prime_divisors
        assert found <= now, trial_bound
        found = now
    for cap in (1, 10**2, 10**6):
        budget = SearchBudget(trial_division_bound=10, rho_iteration_cap=cap)
        now = factorize(n, budget).prime_divisors
        assert found & now <= now  # no loss against itself
    assert factorize(n, SearchBudget()).prime_divisors == {2, 3, 10_000_019, 10_000_079}


def test_factorize_matches_sympy_spot(rng):
    for _ in range(50):
        n = rng.randint(10**12, 10**15)
        assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_rejects_small_n():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(trial_division_bound=0)
    with pytest.raises(ValueError):
        SearchBudget(max_depth=0)
    # a float is refused by name, not passed on to fail later or never
    for name in ("trial_division_bound", "rho_iteration_cap", "max_depth"):
        with pytest.raises(TypeError, match=name):
            SearchBudget(**{name: 1e6})


def test_factorization_is_target_factors_cofactor():
    # status is derived from the cofactor, so the two cannot disagree
    assert tuple(f.name for f in dataclasses.fields(Factorization)) == ("target", "factors", "cofactor")
    assert Factorization(3783, ((3, 1), (13, 1), (97, 1)), 1).status == "complete"
    assert Factorization(3783, ((3, 1),), 1261).status == "exhausted"


def test_no_result_is_kept_between_calls(tiny_budget):
    # no record is kept between calls: a complete factorization under the
    # default budget must not change what a later call computes under a
    # budget too small to finish it
    n = 1000000007 * 998244353
    assert factorize(n).complete
    assert factorize(n, tiny_budget).status == "exhausted"


def test_rho_cap_is_checked_per_doubling_round():
    # Brent's rho checks its cap only after a whole doubling round, so a
    # failing attempt spends the smallest 2^j - 2 >= cap iterations
    n = (2**61 - 1) * (2**89 - 1)
    assert _brent(n, 1, 10) == (None, 14)
    assert _brent(n, 1, 1000) == (None, 1022)
    assert _brent(n, 1, 4096) == (None, 8190)
    cap = DEFAULT_BUDGET.rho_iteration_cap
    assert min(2**j - 2 for j in range(64) if 2**j - 2 >= cap) == 2**24 - 2 == 16_777_214


# x^2 + x + 1 for these x leaves a 92-, 98- and 76-bit composite after trial
# division and 2^16 rho iterations: the two hard steps of the 1e10
# cyclotomic scan and one root of the certify pool
HARD_ROOTS = (88494794232391, 753133180286341, 1217689472431)


def quick_leftover(x):
    result = factorize(x * x + x + 1, SearchBudget(rho_iteration_cap=factor._QUICK_CAP))
    assert not is_prime(result.cofactor) and result.cofactor > 1, x
    return result.cofactor


def test_ecm_splits_hard_leftovers_and_semiprimes(rng):
    composites = [quick_leftover(x) for x in HARD_ROOTS]
    # with B1 = 2000 a 56-bit prime already takes most of the 100 curves
    for bits in ((40, 60), (46, 54), (52, 52)):
        composites.append(math.prod(sympy.nextprime(rng.getrandbits(b)) for b in bits))
    for m in composites:
        divisor = factor._ecm_split(m)
        assert divisor is not None and 1 < divisor < m and m % divisor == 0, m
        assert dict(factorize(m).factors) == sympy.factorint(m), m


def test_ecm_is_deterministic():
    m = quick_leftover(1217689472431)
    assert factor._ecm_split(m) == factor._ecm_split(m) == 941644825327


def test_no_ecm_at_or_below_the_quick_cap(monkeypatch):
    calls = []
    split = factor._ecm_split
    monkeypatch.setattr(factor, "_ecm_split", lambda m: calls.append(m) or split(m))
    x = 1217689472431
    for cap in (1, 2, 10, 2**10, factor._QUICK_CAP):
        assert not factorize(x * x + x + 1, SearchBudget(rho_iteration_cap=cap)).complete, cap
    assert calls == []
    assert factorize(x * x + x + 1, SearchBudget(rho_iteration_cap=factor._QUICK_CAP + 1)).complete
    assert calls == [quick_leftover(x)]


def test_a_piece_that_ecm_splits_off_goes_back_to_ecm(monkeypatch, rng):
    # the 2^16 rho pass fails on this product of three primes of about 40 bits;
    # the composite piece ECM leaves goes straight to ECM, not to another 2^16 pass
    primes = sorted(sympy.nextprime(rng.getrandbits(40)) for _ in range(3))
    n = math.prod(primes)
    expected = Factorization(n, tuple((p, 1) for p in primes), 1)
    assert single_pass(n, DEFAULT_BUDGET) == expected  # the result before the splitter loop
    quick, ecm = [], []
    rho_split, ecm_split = factor._rho_split, factor._ecm_split

    def rho_spy(m, cap):
        if cap <= factor._QUICK_CAP:
            quick.append(m)
        return rho_split(m, cap)

    monkeypatch.setattr(factor, "_rho_split", rho_spy)
    monkeypatch.setattr(factor, "_ecm_split", lambda m: ecm.append(m) or ecm_split(m))
    assert factorize(n) == expected
    assert quick == [n] and len(ecm) == 2 and ecm[0] == n
    assert n % ecm[1] == 0 and not is_prime(ecm[1])


def single_pass(n, budget):
    """The one-loop factorizer that `_stages` replaced, kept as the reference:
    each part gets the 2^16 rho pass, then under a larger cap ECM."""
    counts, leftovers = {}, []
    cof = factor._trial_divide(n, budget.trial_division_bound, counts)
    pending = [cof] if cof > 1 else []
    while pending:
        pending.sort(reverse=True)
        m = pending.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        divisor, cap = None, budget.rho_iteration_cap
        if m.bit_length() <= factor._MAX_RHO_BITS:
            divisor = factor._rho_split(m, min(cap, factor._QUICK_CAP))
            if divisor is None and cap > factor._QUICK_CAP:
                divisor = factor._ecm_split(m)
        if divisor is None:
            leftovers.append(m)
        else:
            pending.extend((divisor, m // divisor))
    return Factorization(n, tuple(sorted(counts.items())), math.prod(leftovers))


@pytest.mark.parametrize(
    "budget",
    [
        DEFAULT_BUDGET,
        SearchBudget(rho_iteration_cap=factor._QUICK_CAP),
        SearchBudget(trial_division_bound=100, rho_iteration_cap=10),
    ],
    ids=repr,
)
def test_stages_match_the_single_pass_they_replaced(budget, monkeypatch):
    # a closure step may stop at any draw: each is a sound partial result, one
    # splitter call ahead of the last, and the last is what the budget buys
    calls = []
    rho_split, ecm_split = factor._rho_split, factor._ecm_split
    monkeypatch.setattr(factor, "_rho_split", lambda m, cap: calls.append(m) or rho_split(m, cap))
    monkeypatch.setattr(factor, "_ecm_split", lambda m: calls.append(m) or ecm_split(m))
    for x in [p for p in primes_up_to(3000) if p > 7] + [1217689472431]:
        n = x * x + x + 1
        expected = single_pass(n, budget)
        calls.clear()
        stages, between = [], []
        for result in factor._stages(n, budget):
            between.append(len(calls))
            calls.clear()
            stages.append(result)
        assert stages[-1] == expected, x
        assert between + [len(calls)] == [0] + [1] * (len(stages) - 1) + [0], x
        for result in stages:
            assert n == math.prod(p**e for p, e in result.factors) * result.cofactor, x
        for before, after in zip(stages, stages[1:]):
            assert collections.Counter(dict(before.factors)) <= collections.Counter(dict(after.factors)), x
            assert before.cofactor % after.cofactor == 0, x


def test_without_curves_factorize_is_rho_alone(monkeypatch):
    # ECM splits this 76-bit leftover; without curves it stays whole under
    # every cap, since no rho run ever goes past the 2^16 pass
    x = 1217689472431
    n = x * x + x + 1
    full = ((3, 1), (13, 1), (40375821481, 1), (941644825327, 1))
    mid = SearchBudget(rho_iteration_cap=2**17)
    assert factorize(n).factors == factorize(n, mid).factors == full
    caps = []
    rho_split = factor._rho_split
    monkeypatch.setattr(factor, "_rho_split", lambda m, cap: caps.append(cap) or rho_split(m, cap))
    monkeypatch.setattr(factor, "_ECM_CURVES", 0)
    partial = Factorization(n, ((3, 1), (13, 1)), quick_leftover(x))
    assert factorize(n) == factorize(n, mid) == partial
    assert caps and max(caps) <= factor._QUICK_CAP


@functools.cache
def blocks_of_64(bound):
    primes = primes_up_to(bound)
    return [(math.prod(primes[i : i + 64]), primes[i : i + 64]) for i in range(0, len(primes), 64)]


def trial_divide_to_the_end(n, bound, counts):
    """The trial division loop before the proven-prime stop, kept as the reference:
    blocks of 64 primes, screened by one gcd each until p * p passes the cofactor."""
    cof = n
    for prod, chunk in blocks_of_64(bound):
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
    return cof


@pytest.mark.parametrize("bound", [DEFAULT_BUDGET.trial_division_bound, 1000])
def test_trial_division_matches_the_loop_it_replaced(bound, rng):
    # the stop skips only primes that cannot divide a prime cofactor above the bound,
    # and no block width can change a result
    above = sympy.nextprime(arith._MR_DETERMINISTIC_BOUND)
    inputs = [x * x + x + 1 for x in primes_up_to(3000) if x > 7]
    inputs += [rng.randint(2, 10**12) for _ in range(2000)]
    inputs += [6 * sympy.nextprime(bound), sympy.prevprime(bound) ** 2, sympy.nextprime(bound) ** 2]
    inputs += [sympy.prevprime(10**6) * above, sympy.nextprime(10**6) * above, 2 * 999983]
    for n in inputs:
        counts, expected = {}, {}
        assert factor._trial_divide(n, bound, counts) == trial_divide_to_the_end(n, bound, expected), n
        assert counts == expected, n


def test_trial_division_stops_at_a_proven_prime(monkeypatch):
    screened, asked = [], []
    blocks, primality = factor._prime_blocks, arith._primality
    monkeypatch.setattr(factor, "_prime_blocks", lambda bound, step: (screened.append(b) or b for b in blocks(bound, step)))
    monkeypatch.setattr(arith, "_primality", lambda n: asked.append(n) or primality(n))
    bound = DEFAULT_BUDGET.trial_division_bound
    proven = sympy.nextprime(2**59)  # 60 bits: the prime of 7 * proven is settled after the first block
    counts = {}
    assert factor._trial_divide(7 * proven, bound, counts) == proven and counts == {7: 1}
    assert len(screened) <= 2 and proven in asked
    # a cofactor is tested once, not again on each block that leaves it as it was
    semiprime = sympy.nextprime(2**30) * sympy.nextprime(2**31)
    asked.clear()
    assert factor._trial_divide(semiprime, bound, {}) == semiprime and asked == [semiprime]
    # above the deterministic bound primality is only probable, so every block is screened
    probable = sympy.nextprime(arith._MR_DETERMINISTIC_BOUND)
    screened.clear()
    asked.clear()
    counts = {}
    assert factor._trial_divide(7 * probable, bound, counts) == probable and counts == {7: 1}
    assert len(screened) == len(blocks(bound)) and probable not in asked


def step_blocks(bound):
    return factor._prime_blocks(bound, step=True)


def step_inputs(rng):
    # 3 divides x^2 + x + 1 exactly when x = 1 (mod 3), about a third of the seeded x
    xs = [p for p in primes_up_to(3000) if p > 7] + [1217689472431]
    return [x * x + x + 1 for x in xs + [rng.randint(8, 2**40) for _ in range(200)]]


@pytest.mark.parametrize(
    "budget",
    [DEFAULT_BUDGET]
    + [SearchBudget(trial_division_bound=b, rho_iteration_cap=1) for b in (2, 3, 6, 1000, 10**6)],
    ids=repr,
)
def test_step_table_gives_the_same_stages(budget, rng):
    # only primes that cannot divide x^2 + x + 1 are left out, so the cofactor
    # handed to rho and ECM, and with it each stage, is the every-prime one; the
    # default budget follows it through the 2^16 rho pass and ECM, and a rho cap
    # of 1 keeps the small bounds (below 3, below 7) about trial division
    bound = budget.trial_division_bound
    for n in step_inputs(rng):
        stages = itertools.zip_longest(goodness._stages(n, budget), factor._stages(n, budget))
        for ours, every in stages:
            assert ours == every, n
        counts, expected = {}, {}
        cofactor = factor._trial_divide(n, bound, counts, step=True)
        assert cofactor == trial_divide_to_the_end(n, bound, expected) and counts == expected, n


@pytest.mark.parametrize("bound", [1, 2, 3, 6, 7, 13, 1000, DEFAULT_BUDGET.trial_division_bound])
def test_step_table_holds_3_and_the_primes_1_mod_6(bound):
    blocks, every = step_blocks(bound), factor._prime_blocks(bound)
    expected = [p for p in primes_up_to(bound) if p == 3 or p % 6 == 1]
    assert [p for _, chunk in blocks for p in chunk] == expected
    assert all(prod == math.prod(chunk) and len(chunk) <= factor._BLOCK_PRIMES for prod, chunk in blocks)
    assert {type(p) for _, chunk in blocks for p in chunk} <= {int}  # a numpy int would wrap in the product
    assert len(blocks) <= -(-len(every) // 2) + 1
    if bound == DEFAULT_BUDGET.trial_division_bound:
        assert (len(every), len(blocks)) == (614, 307)


def test_closure_steps_never_screen_2_or_primes_5_mod_6(monkeypatch):
    screened = {}
    prime_blocks = factor._prime_blocks

    def spy(bound, step):
        for prod, chunk in prime_blocks(bound, step):
            screened.setdefault("step" if step else "every", set()).update(chunk)
            yield prod, chunk

    monkeypatch.setattr(factor, "_prime_blocks", spy)
    for p in (13, 31, 1217689472431):
        goodness.is_good(p)
    steps = screened.pop("step")
    assert 3 in steps and 7 in steps and screened == {}
    assert all(p == 3 or p % 6 == 1 for p in steps)
    # factorize keeps the every-prime table, so it strips primes = 5 (mod 6)
    assert factorize(11 * 1000003) == Factorization(11 * 1000003, ((11, 1), (1000003, 1)), 1)
    assert factorize(17 * 999983) == Factorization(17 * 999983, ((17, 1), (999983, 1)), 1)
    assert {2, 11, 17} <= screened["every"]
