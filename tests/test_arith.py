import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
import sympy

from goodprimes import arith
from goodprimes.arith import (
    SIEVE_BOUND_LIMIT,
    ResourceLimitError,
    cyclotomic_value,
    is_prime,
    primality,
    primes_up_to,
    sigma,
    sigma_prime_power,
    valuation,
)
from goodprimes.factor import SearchBudget, factorize
from goodprimes.oracles import multiplicative_order, sigma_exact_power

# ---- independent oracles ----------------------------------------------------


def sigma_naive(n):
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def order_naive(p, q):
    x = p % q
    d = 1
    while x != 1:
        x = x * p % q
        d += 1
    return d


def valuation_naive(q, n):
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


# ---- primes -----------------------------------------------------------------


def test_primes_up_to_matches_sympy():
    assert primes_up_to(200) == list(sympy.primerange(2, 201))
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert type(primes_up_to(100)[0]) is int


def test_primes_up_to_returns_a_fresh_list():
    primes_up_to(1000).append(4)
    assert primes_up_to(1000) == list(sympy.primerange(2, 1001))


def test_primes_up_to_refuses_a_sieve_above_the_limit():
    # refused before numpy allocates anything, so a huge bound is cheap
    for n in (SIEVE_BOUND_LIMIT + 1, 10**11):
        with pytest.raises(ResourceLimitError, match="exceeds limit"):
            primes_up_to(n)


def test_arith_imports_nothing_from_the_package():
    # arith is the leaf layer: an import of factor (or any sibling) at any
    # depth, even inside a function, would bring back an import cycle
    tree = ast.parse(Path(arith.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert name.split(".")[0] != "goodprimes", f"{name} imported at line {node.lineno}"


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package; __init__ is exempt, its imports are `__all__`
    for path in sorted(Path(arith.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, f"{path.name} imports {name} at line {node.lineno} and never uses it"


def test_package_self_checks_survive_optimisation():
    # `python -O` strips bare asserts; a self-check must raise AssertionError itself
    for path in sorted(Path(arith.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"bare assert in {path.name} at line {node.lineno}"


PUBLIC_NAMES = [
    "ClosureState",
    "DEFAULT_BUDGET",
    "DivisibilityWitness",
    "Factorization",
    "GoodnessCertificate",
    "GoodnessResult",
    "ScanReport",
    "SearchBudget",
    "SweepReport",
    "alpha_exact_valuation",
    "beta_feasible",
    "cyclotomic_divides_sigma",
    "expand",
    "factorize",
    "forced_good_divisor",
    "forced_prime_count",
    "goodness_sweep",
    "initial_state",
    "is_good",
    "is_prime",
    "log_enclosure",
    "multiplicative_order",
    "omega_upper_bound",
    "primality",
    "primes_up_to",
    "scan_105",
    "scan_cyclotomic_form",
    "scan_odd_perfect",
    "scan_squarefree_form",
    "sigma",
    "sigma_coprime_to_five",
    "sigma_exact_power",
    "sigma_prime_power",
    "valuation",
    "verify_certificate",
]


def test_public_surface_is_pinned():
    # any export added or removed shows up here as a diff
    import goodprimes

    assert len(PUBLIC_NAMES) == 35 and PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert goodprimes.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(goodprimes, name) is not None, name


def test_is_prime_small_range_exhaustive():
    for n in range(200_000):
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_known_values():
    assert is_prime(3348577)
    assert is_prime(3737657091169)
    assert not is_prime(1)
    assert not is_prime(0)
    # strong pseudoprimes to base 2 must be caught
    for n in (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633):
        assert not is_prime(n), n


def test_is_prime_random_big(rng):
    for bits in (64, 80, 100, 128):
        for _ in range(25):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n), n


def test_primality_confidence_levels():
    assert primality(97) == "prime"
    assert primality(3348577) == "prime"
    assert primality(91) == "composite"
    # beyond the deterministic witness bound the flag weakens
    p_big = sympy.nextprime(10**25)
    assert primality(p_big) == "probable_prime"
    assert is_prime(p_big)
    assert primality(p_big + 2) in ("composite", "probable_prime")


def test_primality_refuses_non_integers():
    # 7.0 used to be answered from the memo entry for 7, and 53.0 raised
    # from inside Miller-Rabin; both must be refused before the memo
    assert is_prime(7) and primality(53) == "prime"  # the memo holds both
    for check in (is_prime, primality):
        for bad in (7.0, 53.0, "7"):
            with pytest.raises(TypeError):
                check(bad)
    assert is_prime(np.int64(7)) and primality(np.int64(53)) == "prime"
    assert not is_prime(np.int64(55))


def test_primality_agrees_with_sympy_around_deterministic_bound(rng):
    for _ in range(20):
        n = rng.randrange(10**24, 10**26) | 1
        assert is_prime(n) == sympy.isprime(n), n


def test_each_witness_tier_edge_is_a_strong_pseudoprime_to_its_bases():
    # psi_k passes the first k bases, so no edge can be raised without a
    # composite below it being called prime.
    edges = [edge for edge, _ in arith._MR_TIERS]
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert edges[-1] == arith._MR_DETERMINISTIC_BOUND
    # trial division runs first, so no base can be 0 mod a surviving n
    assert max(arith._MR_BASES) < max(arith._SMALL_PRIMES)
    for edge, k in arith._MR_TIERS:
        assert not sympy.isprime(edge), edge
        for base in arith._MR_BASES[:k]:
            assert arith._strong_probable_prime(edge, base), (edge, base)
        assert not is_prime(edge), edge


def test_primality_agrees_with_sympy_in_every_witness_tier(rng):
    lower = 2
    for edge, _ in arith._MR_TIERS:
        odd = [rng.randrange(lower, edge - 1) | 1 for _ in range(200)]
        # drawn the way sympy.randprime draws, but from the seeded rng
        primes = [sympy.nextprime(rng.randrange(lower - 1, edge)) for _ in range(20)]
        primes = [p if p < edge else sympy.prevprime(edge) for p in primes]
        # semiprimes with both factors near sqrt(edge): the hardest inputs
        # for a short witness set
        root = math.isqrt(edge)
        semiprimes = []
        for _ in range(20):
            p = sympy.prevprime(root - rng.randrange(root // 64 + 1))
            semiprimes.append(p * sympy.prevprime(edge // p))
        for n in odd + primes + semiprimes:
            assert lower <= n < edge, (n, edge)
            assert is_prime(n) == sympy.isprime(n), n
        assert all(is_prime(p) for p in primes)
        assert not any(is_prime(n) for n in semiprimes)
        lower = edge


# ---- valuation --------------------------------------------------------------


def test_valuation_examples():
    assert valuation(3, 9507) == 1
    assert valuation(5, 7) == 0
    assert valuation(2, 2400) == 5


def test_valuation_random_consistency(rng):
    primes = primes_up_to(100)
    for _ in range(10_000):
        q = rng.choice(primes)
        n = rng.randint(1, 10**12)
        e = valuation(q, n)
        assert n % q**e == 0
        assert n % q ** (e + 1) != 0


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(4, 10)
    with pytest.raises(ValueError):
        valuation(3, 0)


def test_valuation_refuses_non_integers():
    # a float must not be divided as if it were exact (9.0 would give 2)
    for q, n in ((3, 9.0), (3, 27.0), (3, 2.5), (3.0, 9), (3, "9")):
        with pytest.raises(TypeError):
            valuation(q, n)


# ---- cyclotomic values ------------------------------------------------------


def test_cyclotomic_value_is_phi3():
    for x in list(range(1, 200)) + [2**200 - 1, 2**200, 3**127]:
        assert cyclotomic_value(x) == x * x + x + 1, x
    assert cyclotomic_value(3) == 13 and cyclotomic_value(5) == 31


def test_cyclotomic_rejects_bad_input():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            cyclotomic_value(bad)
    for bad in (2.5, "3"):
        with pytest.raises(TypeError):
            cyclotomic_value(bad)


def test_cyclotomic_value_stays_a_public_arith_function():
    # perfbench's tracer wraps every public function defined in arith,
    # exported or not, and reports arith.cyclotomic_value by that name
    import goodprimes

    fn = vars(arith)["cyclotomic_value"]
    assert callable(fn) and fn.__module__ == arith.__name__
    assert "cyclotomic_value" not in goodprimes.__all__


# ---- divisor sums -----------------------------------------------------------


def test_sigma_prime_power_examples():
    assert sigma_prime_power(3, 2) == 13
    assert sigma_prime_power(11, 0) == 1
    assert sigma_prime_power(7, 3) == 400


def test_sigma_prime_power_refuses_non_integers():
    # a float must not be summed as if it were exact (2.5, 2 gave 9.0)
    for p, c in ((2.5, 2), (3, 2.0), (3.0, 2), ("3", 2)):
        with pytest.raises(TypeError):
            sigma_prime_power(p, c)
    assert sigma_prime_power(np.int64(3), np.int64(2)) == 13


def test_sigma_prime_power_identity():
    # sigma(p^c) * (p - 1) == p^(c+1) - 1
    for p in primes_up_to(1000):
        for c in range(51):
            assert sigma_prime_power(p, c) * (p - 1) == p ** (c + 1) - 1


def test_sigma_examples():
    assert sigma(6, [(2, 1), (3, 1)]) == 12
    assert sigma(1, []) == 1
    assert sigma(496, [(2, 4), (31, 1)]) == 992


def test_sigma_matches_naive(rng):
    for _ in range(300):
        n = rng.randint(2, 10**6)
        assert sigma(n, sympy.factorint(n).items()) == sigma_naive(n)


def test_sigma_rejects_incomplete_or_wrong():
    with pytest.raises(ValueError):
        sigma(12, [(2, 2)])  # product mismatch
    with pytest.raises(ValueError):
        sigma(12, [(4, 1), (3, 1)])  # not prime
    # a product of two Mersenne primes that rho cannot split within 10
    # iterations: no factors, so the cofactor is missing from the product
    result = factorize((2**61 - 1) * (2**89 - 1), SearchBudget(rho_iteration_cap=10))
    assert result.status == "exhausted" and result.factors == ()
    with pytest.raises(ValueError):
        sigma(result.target, result.factors)


def test_sigma_refuses_huge_exponent_before_computing_it():
    # 2**(10**12) would need over 100 GB; the refusal must not build it
    start = time.perf_counter()
    with pytest.raises(ValueError):
        sigma(8, [(2, 10**12)])
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError):
        sigma(8, [(2, 4)])  # the smallest exponent refused for 8


def test_sigma_rejects_non_integers():
    with pytest.raises(TypeError):
        sigma(6, [(2.5, 1), (3, 1)])
    with pytest.raises(TypeError):
        sigma(8, [(2, 3.9)])
    with pytest.raises(TypeError):
        sigma(6.0, [(2, 1), (3, 1)])  # raised AttributeError from n.bit_length()
    # integer types other than int pass
    assert sigma(8, [(np.int64(2), np.int64(3))]) == 15
    assert sigma(6, [(sympy.Integer(2), sympy.Integer(1)), (3, 1)]) == 12


# ---- multiplicative order ---------------------------------------------------


def test_order_examples():
    assert multiplicative_order(11, 5) == 1
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(2, 7) == 3


def test_order_valuation_examples():
    # the witness carries a, the exact power of q in p^d - 1
    assert sigma_exact_power(5, 1, 7, 1).a == 2  # 7^4 - 1 = 2400 = 2^5 * 3 * 5^2
    assert sigma_exact_power(7, 1, 2, 1).a == 1  # 2^3 - 1 = 7
    assert sigma_exact_power(5, 1, 11, 1).a == 1  # 11 - 1 = 10


def test_order_properties_exhaustive_small():
    primes = primes_up_to(199)
    for q in primes:
        if q == 2:
            continue
        for p in primes:
            if p == q:
                continue
            d = multiplicative_order(p, q)
            assert (q - 1) % d == 0
            assert d == order_naive(p, q)
            a = sigma_exact_power(q, 1, p, 1).a
            assert a >= 1
            # direct exponentiation check of q^a || p^d - 1
            assert valuation_naive(q, p**d - 1) == a


def test_order_rejects_bad_input():
    with pytest.raises(ValueError):
        multiplicative_order(5, 5)
    with pytest.raises(ValueError):
        multiplicative_order(4, 7)
    with pytest.raises(ValueError):
        multiplicative_order(3, 2)
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)
