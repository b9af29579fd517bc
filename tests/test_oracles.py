import math
from fractions import Fraction

import pytest
import sympy

from goodprimes.arith import ResourceLimitError, primes_up_to, sigma_prime_power, valuation
from goodprimes.goodness import is_good
from goodprimes.oracles import (
    alpha_exact_valuation,
    beta_feasible,
    cyclotomic_divides_sigma,
    forced_good_divisor,
    forced_prime_count,
    omega_upper_bound,
    sigma_coprime_to_five,
    sigma_exact_power,
)


def test_witness_examples():
    w = sigma_exact_power(5, 1, 11, 4)  # sigma(11^4) = 16105 = 5 * 3221
    assert w.holds and w.branch == "congruent_1"
    w = sigma_exact_power(5, 2, 7, 3)  # sigma(7^3) = 400 = 2^4 * 5^2
    assert w.holds and w.branch == "not_congruent_1" and w.d == 4 and w.a == 2
    w = sigma_exact_power(5, 1, 7, 2)  # sigma(7^2) = 57 = 3 * 19
    assert not w.holds


def test_witness_exhaustive_agreement_with_direct_valuation():
    # all odd primes q < 50, primes p < 50 (p != q), c <= 30, b <= 6
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
                    w = sigma_exact_power(q, b, p, c)
                    assert w.holds == (direct == b), (q, b, p, c)
                    assert w.branch == ("congruent_1" if p % q == 1 else "not_congruent_1")


def test_witness_factors_the_group_order_once(monkeypatch):
    # d and a come from one factorization of q - 1
    from goodprimes import oracles

    calls = []
    factor = oracles.factorize

    def spy(n, *args):
        calls.append(n)
        return factor(n, *args)

    monkeypatch.setattr(oracles, "factorize", spy)
    witnesses = [(5, 2, 7, 3), (5, 1, 11, 4), (7, 1, 2, 2), (13, 1, 3, 2), (31, 1, 5, 2)]
    for q, b, p, c in witnesses:
        calls.clear()
        w = sigma_exact_power(q, b, p, c)
        assert calls == [q - 1]
        assert (p**w.d - 1) % q**w.a == 0
        assert (p**w.d - 1) % q ** (w.a + 1) != 0


def test_unfactored_group_order_is_a_resource_limit():
    # q - 1 = 4 * 191 * P * Q, whose 600-bit part P * Q is over the rho ceiling
    q = 2 * 382 * sympy.nextprime(2**299) * sympy.nextprime(2**300) + 1
    assert sympy.isprime(q)
    with pytest.raises(ResourceLimitError, match="did not factor completely"):
        sigma_exact_power(q, 1, 3, 2)


def test_witness_big_exponent_branch_b():
    # v5(sigma(7^99)) = a + v5(100) = 2 + 2 = 4
    assert sigma_exact_power(5, 4, 7, 99).holds
    assert not sigma_exact_power(5, 3, 7, 99).holds
    assert not sigma_exact_power(5, 5, 7, 99).holds


def test_witness_rejects_bad_args():
    with pytest.raises(ValueError):
        sigma_exact_power(2, 1, 7, 3)  # q must be odd
    with pytest.raises(ValueError):
        sigma_exact_power(5, 1, 5, 3)  # p == q
    with pytest.raises(ValueError):
        sigma_exact_power(5, 0, 7, 3)
    with pytest.raises(ValueError):
        sigma_exact_power(5, 1, 6, 3)


@pytest.mark.parametrize(
    "oracle, args",
    [
        (beta_feasible, (2.5,)),
        (omega_upper_bound, (2.5,)),
        (omega_upper_bound, (2.0,)),
        (forced_prime_count, (2.5,)),
        (alpha_exact_valuation, (2, 1.5)),
        (alpha_exact_valuation, (2.0, 1)),
        (sigma_exact_power, (3, 1.0, 2, 1)),
        (sigma_exact_power, (3, 1, 2, 1.0)),
        (sigma_coprime_to_five, (7, 1.5)),
        (forced_good_divisor, (1.5, 1)),
    ],
    ids=lambda v: getattr(v, "__name__", None) or repr(v),
)
def test_oracles_refuse_non_integers(oracle, args):
    # several used to answer in float arithmetic: omega_upper_bound(2.5) was 33.0,
    # forced_good_divisor(1.5, 1) was 13 and sigma_exact_power(3, 1.0, 2, 1) a witness with b=1.0
    with pytest.raises(TypeError):
        oracle(*args)


def test_sigma_coprime_to_five_examples():
    assert sigma_coprime_to_five(3, 1)  # sigma(9) = 13
    assert sigma_coprime_to_five(7, 2)  # sigma(7^4) = 2801 = 1 mod 5
    assert sigma_coprime_to_five(13, 3)


def test_sigma_coprime_to_five_parity_obstruction():
    # every prime p != 0,1 mod 5 and every beta <= 30: 5 never divides sigma(p^(2 beta))
    for p in primes_up_to(300):
        if p % 5 in (0, 1) or p == 2:
            continue
        for beta in range(1, 31):
            assert valuation(5, sigma_prime_power(p, 2 * beta)) == 0, (p, beta)
            assert sigma_coprime_to_five(p, beta)


def test_sigma_coprime_to_five_rejects():
    with pytest.raises(ValueError):
        sigma_coprime_to_five(11, 1)  # 11 = 1 mod 5
    with pytest.raises(ValueError):
        sigma_coprime_to_five(5, 1)
    with pytest.raises(ValueError):
        sigma_coprime_to_five(9, 1)


def test_omega_upper_bound_values():
    assert omega_upper_bound(1) == 9
    assert omega_upper_bound(2) == 23
    assert omega_upper_bound(5) == 113


def test_omega_upper_bound_closed_form_regression():
    import numpy as np

    # evaluated two ways for every beta up to 1e6
    betas = np.arange(1, 10**6 + 1, dtype=np.int64)
    direct = 4 * betas * betas + 2 * betas + 3
    horner = (4 * betas + 2) * betas + 3
    assert (direct == horner).all()
    assert omega_upper_bound(10**6) == int(direct[-1])
    assert omega_upper_bound(1) == int(direct[0])


def test_forced_prime_count_enclosures():
    # (3^(2 beta - 1) - 1) / ln(2 beta + 1)
    for beta, expected in ((1, 2 / math.log(3)), (2, 26 / math.log(5)), (3, 242 / math.log(7))):
        bound = forced_prime_count(beta)
        assert float(bound.lower) <= expected <= float(bound.upper) or abs(float(bound) - expected) < 1e-9
        assert bound.log_upper - bound.log_lower <= Fraction(1, 10**12)
        assert abs(float(bound) - expected) < 1e-9


def test_beta_feasible_window():
    feasible = [beta for beta in range(1, 101) if beta_feasible(beta)]
    assert feasible == [1, 2]


def test_beta_feasible_monotone_false_tail():
    # the left side grows like 9^beta; once infeasible, always infeasible
    last = True
    for beta in range(1, 101):
        now = beta_feasible(beta)
        assert not (now and not last), beta
        last = now


def test_alpha_exact_valuation():
    # exact 3-power checks: v3(alpha + 1) must equal 2 beta - 1
    assert alpha_exact_valuation(2, 1)  # v3(3) = 1
    assert alpha_exact_valuation(5, 1)  # v3(6) = 1
    assert not alpha_exact_valuation(17, 1)  # v3(18) = 2
    assert not alpha_exact_valuation(8, 1)  # v3(9) = 2
    assert alpha_exact_valuation(26, 2)  # v3(27) = 3


def test_cyclotomic_divides_sigma_examples():
    assert cyclotomic_divides_sigma(5, 0)  # 31 | 31
    assert cyclotomic_divides_sigma(11, 1)  # 133 | sigma(11^8)
    assert cyclotomic_divides_sigma(13, 2)


def test_cyclotomic_divides_sigma_sweep():
    for q in primes_up_to(997):
        for k in range(21):
            assert cyclotomic_divides_sigma(q, k), (q, k)


def test_forced_good_divisor():
    assert forced_good_divisor(2, 1) == 31
    assert forced_good_divisor(1, 1) == 13
    assert forced_good_divisor(1, 2) is None
    assert forced_good_divisor(5, 1) == 31
    assert forced_good_divisor(3, 4) == 13
    # both forced divisors are themselves good
    assert is_good(31).good
    assert is_good(13).good
