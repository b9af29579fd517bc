"""Certified rational enclosures of natural logarithms.

The comparisons this package makes against log expressions are exact
claims, so they are decided with two-sided rational bounds rather than
floats.  ln is evaluated through the atanh series

    ln(v) = 2 * sum_{j >= 0} z^(2j+1) / (2j+1),   z = (v - 1) / (v + 1),

after reducing the argument to [1, 2) by powers of two, which keeps
z <= 1/3 and makes the series tail geometric: the tail after J terms is
at most 2 * z^(2J+1) / ((2J+1) * (1 - z^2)).  Every partial sum is a
strict lower bound, partial sum plus tail bound an upper bound, and all
arithmetic is in fractions.Fraction, so the returned interval provably
contains the true value.
"""

from fractions import Fraction

DEFAULT_WIDTH = Fraction(1, 10**12)


def _atanh_series(z: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    # enclosure of 2*atanh(z) for 0 <= z < 1
    if z == 0:
        return Fraction(0), Fraction(0)
    z2 = z * z
    term = z
    total = Fraction(0)
    j = 0
    while True:
        total += term / (2 * j + 1)
        j += 1
        term *= z2
        tail = 2 * term / ((2 * j + 1) * (1 - z2))
        if tail <= width:
            return 2 * total, 2 * total + tail


def log_enclosure(x, width: Fraction = DEFAULT_WIDTH) -> tuple[Fraction, Fraction]:
    """Certified (lower, upper) rational bounds on ln(x), x >= 1 rational.

    The interval width is at most `width` (default 1e-12), which must be
    positive: the series tail never reaches 0.
    """
    x = Fraction(x)
    if x < 1 or width <= 0:
        raise ValueError(f"log_enclosure needs x >= 1 and width > 0, got {x}, {width}")
    if x == 1:
        return Fraction(0), Fraction(0)
    # x = 2^k * r with r in [1, 2)
    k = 0
    r = x
    while r >= 2:
        r /= 2
        k += 1
    if k:
        part = width / 2
        lo2, hi2 = _atanh_series(Fraction(1, 3), part / k)  # ln 2 = 2 * atanh(1/3)
        lo_r, hi_r = _atanh_series((r - 1) / (r + 1), part)
        return k * lo2 + lo_r, k * hi2 + hi_r
    return _atanh_series((r - 1) / (r + 1), width)
