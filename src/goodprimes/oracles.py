"""Executable divisibility criteria and counting bounds for odd perfect forms.

The centerpiece is the order-theoretic criterion for when an odd prime
power q^b exactly divides sigma(p^c):

- if p = 1 (mod q):   q^b || sigma(p^c)  iff  q^b || c + 1;
- if p != 1 (mod q):  q^b || sigma(p^c)  iff  d | c + 1 and
                      b = a + v_q(c + 1), where d is the order of p
                      mod q and a the exact power of q in p^d - 1.

The order machinery lives here: `multiplicative_order` computes d
exactly from a complete factorization of q - 1.  `sigma_exact_power`
evaluates the criterion and, whenever the numbers are small enough to
afford it, also computes the valuation directly and cross-checks the
two routes, returning a witness that carries d and a.

The remaining functions are small numeric facts used by the
non-existence arguments for special multiplicative forms: the bound on
the number of distinct prime factors, the forced count of prime
divisors congruent to 1 mod 5, the feasibility window of the common
exponent (decided with certified log enclosures, not floats), and the
forced good divisors 31 and 13.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import ResourceLimitError, cyclotomic_value, is_prime, sigma_prime_power, valuation
from .enclosure import DEFAULT_WIDTH, log_enclosure
from .factor import DEFAULT_BUDGET, SearchBudget, factorize

# direct sigma cross-check is skipped above this many digits of sigma(p^c)
_CROSSCHECK_DIGIT_LIMIT = 10**6

CONGRUENT_1 = "congruent_1"
NOT_CONGRUENT_1 = "not_congruent_1"


def _positive(name: str, value: int) -> int:
    """value as an int; TypeError for a non-integer (as in `arith`), ValueError below 1."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")
    return value


@dataclass(frozen=True)
class DivisibilityWitness:
    """The full justification for a q^b || sigma(p^c) verdict."""

    q: int
    b: int
    p: int
    c: int
    branch: str
    d: int  # order of p modulo q
    a: int  # exact power of q in p^d - 1
    holds: bool


def multiplicative_order(p: int, q: int, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Smallest d >= 1 with p**d = 1 (mod q), for distinct primes, q odd.

    Found by factoring q - 1 within the budget (ResourceLimitError if that
    stays incomplete) and descending through its divisors, so d is exact
    and divides q - 1.
    """
    _check_order_args(p, q)
    grp = factorize(q - 1, budget)
    if not grp.complete:
        raise ResourceLimitError(f"cannot certify order: {q - 1} did not factor completely")
    d = q - 1
    for prime, exponent in grp.factors:
        for _ in range(exponent):
            if pow(p, d // prime, q) == 1:
                d //= prime
            else:
                break
    return d


def _exact_power(p: int, q: int, d: int) -> int:
    """The e >= 1 with q**e exactly dividing p**d - 1, d the order of p mod q."""
    e = 1
    while pow(p, d, q ** (e + 1)) == 1:
        e += 1
    return e


def _check_order_args(p: int, q: int) -> None:
    if not is_prime(q) or q == 2:
        raise ValueError(f"modulus must be an odd prime, got {q}")
    if not is_prime(p):
        raise ValueError(f"base must be prime, got {p}")
    if p == q:
        raise ValueError(f"base and modulus must be distinct, both are {p}")


def sigma_exact_power(
    q: int, b: int, p: int, c: int, budget: SearchBudget = DEFAULT_BUDGET
) -> DivisibilityWitness:
    """Does q^b exactly divide sigma(p^c)?  (q odd prime, p prime != q.)

    Decided by the order criterion, with q - 1 factored within the budget;
    when sigma(p^c) is small enough the valuation is also computed directly
    and any disagreement raises, making the oracle self-checking.
    """
    b, c = _positive("b", b), _positive("c", c)
    d = multiplicative_order(p, q, budget)  # validates p, q
    a = _exact_power(p, q, d)
    if p % q == 1:
        branch = CONGRUENT_1
        holds = valuation(q, c + 1) == b
    else:
        branch = NOT_CONGRUENT_1
        holds = (c + 1) % d == 0 and b == a + valuation(q, c + 1)
    if (c + 1) * len(str(p)) <= _CROSSCHECK_DIGIT_LIMIT:
        direct = valuation(q, sigma_prime_power(p, c)) == b
        if direct != holds:
            raise AssertionError(
                f"order criterion disagrees with direct valuation for "
                f"q={q}, b={b}, p={p}, c={c}"
            )
    return DivisibilityWitness(q=q, b=b, p=p, c=c, branch=branch, d=d, a=a, holds=holds)


def sigma_coprime_to_five(p: int, beta: int) -> bool:
    """Check that 5 does not divide sigma(p^(2*beta)) for p != 0, 1 (mod 5).

    The order of such a p mod 5 is even (2 or 4) and cannot divide the
    odd exponent count 2*beta + 1, so the divisor sum avoids 5; the
    claim is confirmed by direct computation.  For p = 3 the power
    3^(2*beta+1) is additionally checked to lie in {2, 3} mod 5.
    """
    beta = _positive("beta", beta)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 5 in (0, 1):
        raise ValueError(f"p must not be 0 or 1 mod 5, got p={p}")
    if multiplicative_order(p, 5) not in (2, 4):
        raise AssertionError(f"the order of {p} mod 5 should be 2 or 4")
    ok = sigma_prime_power(p, 2 * beta) % 5 != 0
    if p == 3:
        ok = ok and pow(3, 2 * beta + 1, 5) in (2, 3)
    return ok


def omega_upper_bound(beta: int) -> int:
    """Bound on the number of distinct prime factors of an odd perfect
    number whose non-special exponents all equal beta: 4*beta^2 + 2*beta + 3."""
    beta = _positive("beta", beta)
    return 4 * beta * beta + 2 * beta + 3


@dataclass(frozen=True)
class PrimeCountBound:
    """(3^(2*beta-1) - 1) / ln(2*beta+1) with a certified log enclosure.

    `lower` and `upper` are exact rational bounds on the quotient; the
    log enclosure has width at most 1e-12.
    """

    numerator: int
    log_lower: Fraction
    log_upper: Fraction

    @property
    def lower(self) -> Fraction:
        return Fraction(self.numerator) / self.log_upper

    @property
    def upper(self) -> Fraction:
        return Fraction(self.numerator) / self.log_lower

    def __float__(self) -> float:
        return float((self.lower + self.upper) / 2)


def forced_prime_count(beta: int) -> PrimeCountBound:
    """Lower bound on how many prime divisors congruent to 1 mod 5 the
    squarefree-base form needs at common exponent beta."""
    beta = _positive("beta", beta)
    lo, hi = log_enclosure(2 * beta + 1, DEFAULT_WIDTH)
    return PrimeCountBound(numerator=3 ** (2 * beta - 1) - 1, log_lower=lo, log_upper=hi)


def beta_feasible(beta: int) -> bool:
    """Whether 3^(2*beta-1) - 1 <= ln(2*beta+1) * (4*beta^2 + 2*beta + 3).

    The forced prime-divisor count must fit under the omega bound; this
    holds for beta in {1, 2} only.  Decided rigorously: the enclosure is
    tightened until it separates the two sides (it always does, the left
    side is an integer and the right side is irrational).
    """
    beta = _positive("beta", beta)
    lhs = 3 ** (2 * beta - 1) - 1
    weight = omega_upper_bound(beta)
    width = DEFAULT_WIDTH
    while True:
        lo, hi = log_enclosure(2 * beta + 1, width)
        if lhs <= lo * weight:
            return True
        if lhs > hi * weight:
            return False
        width /= 2


def alpha_exact_valuation(alpha: int, beta: int) -> bool:
    """Does 3^(2*beta - 1) exactly divide alpha + 1?"""
    alpha, beta = _positive("alpha", alpha), _positive("beta", beta)
    return valuation(3, alpha + 1) == 2 * beta - 1


def cyclotomic_divides_sigma(q: int, k: int) -> bool:
    """q^2 + q + 1 divides sigma(q^(6k+2)), by exact division.

    True for every prime q and k >= 0 (the exponent count 6k + 3 is a
    multiple of 3); a False return would be a bug, not a domain case.
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return sigma_prime_power(q, 6 * k + 2) % cyclotomic_value(q) == 0


def forced_good_divisor(alpha: int, b: int) -> int | None:
    """The good prime divisor forced when 3 divides (alpha+1)*(2b+1).

    For an odd number with 5-exponent alpha and 3-exponent 2b:
    if 3 | alpha + 1 then 31 divides sigma(5^alpha); otherwise if
    3 | 2b + 1 then 13 divides sigma(3^(2b)).  The division is verified
    exactly before returning; None when neither condition holds.
    """
    alpha, b = _positive("alpha", alpha), _positive("b", b)
    if (alpha + 1) % 3 == 0:
        if sigma_prime_power(5, alpha) % 31 != 0:
            raise AssertionError(f"31 should divide sigma(5^{alpha})")
        return 31
    if (2 * b + 1) % 3 == 0:
        if sigma_prime_power(3, 2 * b) % 13 != 0:
            raise AssertionError(f"13 should divide sigma(3^{2 * b})")
        return 13
    return None
