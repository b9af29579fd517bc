"""Good-prime chain machinery, divisor-sum oracles, and perfect-number scans.

The package decides "goodness" of primes — whether iterating
x -> {prime divisors of x^2 + x + 1 other than 3} from a prime p > 7
reaches a prime congruent to 2 or 4 mod 7 — and emits independently
verifiable certificates for it.  Around that sit exact number-theoretic
primitives, a budgeted factorizer, executable
divisibility criteria for sigma(p^c), and desk-scale exhaustive scans of
special multiplicative forms for perfect numbers.
"""

from .arith import (
    is_prime,
    primality,
    primes_up_to,
    sigma,
    sigma_prime_power,
    valuation,
)
from .enclosure import log_enclosure
from .factor import (
    DEFAULT_BUDGET,
    Factorization,
    SearchBudget,
    factorize,
)
from .goodness import (
    ClosureState,
    GoodnessCertificate,
    GoodnessResult,
    SweepReport,
    expand,
    goodness_sweep,
    initial_state,
    is_good,
    verify_certificate,
)
from .oracles import (
    DivisibilityWitness,
    alpha_exact_valuation,
    beta_feasible,
    cyclotomic_divides_sigma,
    forced_good_divisor,
    forced_prime_count,
    multiplicative_order,
    omega_upper_bound,
    sigma_coprime_to_five,
    sigma_exact_power,
)
from .scan import (
    ScanReport,
    scan_105,
    scan_cyclotomic_form,
    scan_odd_perfect,
    scan_squarefree_form,
)

__version__ = "0.1.0"

__all__ = [
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
