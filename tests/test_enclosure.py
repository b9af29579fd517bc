import math
from fractions import Fraction

import pytest

from goodprimes.enclosure import DEFAULT_WIDTH, log_enclosure


def test_contains_true_value():
    for x in list(range(2, 300)) + [10**6, 10**9]:
        lo, hi = log_enclosure(x)
        assert lo < hi
        # float log is accurate to ~1e-15 relative, far inside the enclosure slack
        assert float(lo) - 1e-9 <= math.log(x) <= float(hi) + 1e-9


def test_width_bound():
    for x in (2, 3, 5, 7, 201, 999_983):
        lo, hi = log_enclosure(x)
        assert hi - lo <= DEFAULT_WIDTH
    lo, hi = log_enclosure(3, Fraction(1, 10**20))
    assert hi - lo <= Fraction(1, 10**20)


def test_exact_one():
    assert log_enclosure(1) == (0, 0)


def test_rational_arguments():
    lo, hi = log_enclosure(Fraction(3, 2))
    assert float(lo) <= math.log(1.5) <= float(hi)


def test_bounds_are_rational_and_ordered():
    lo, hi = log_enclosure(5)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= hi
    # ln 5 is on the right side of easy rational landmarks
    assert lo > Fraction(8, 5)  # > 1.6
    assert hi < Fraction(13, 8)  # < 1.625


def test_rejects_below_one():
    with pytest.raises(ValueError):
        log_enclosure(Fraction(1, 2))
    with pytest.raises(ValueError):
        log_enclosure(0)


def test_rejects_nonpositive_width():
    # the series tail is always positive, so width <= 0 would never return
    for width in (0, -1, Fraction(-1, 10**12)):
        with pytest.raises(ValueError, match="width"):
            log_enclosure(3, width)


def test_additivity_cross_check():
    # ln(6) = ln(2) + ln(3) within combined widths
    lo6, hi6 = log_enclosure(6)
    lo2, hi2 = log_enclosure(2)
    lo3, hi3 = log_enclosure(3)
    assert lo2 + lo3 <= hi6 and lo6 <= hi2 + hi3
