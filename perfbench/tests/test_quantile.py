"""The Harrell-Davis quantile estimate the latency metrics use."""

import math

import pytest
from run import _beta_cdf, quantile


def test_single_value_is_itself():
    assert quantile([0.25], 0.5) == 0.25
    assert quantile([0.25], 0.9) == 0.25


def test_median_of_two_is_their_mean():
    assert quantile([1.0, 3.0], 0.5) == pytest.approx(2.0)


def test_median_of_symmetric_sample_is_its_centre():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantile(values, 0.5) == pytest.approx(3.0)


def test_constant_sample_gives_the_constant():
    assert quantile([0.7] * 40, 0.9) == pytest.approx(0.7)


def test_rises_with_the_fraction_and_stays_in_range():
    values = [0.01 * (i * 37 % 101) for i in range(101)]
    low, mid, high = (quantile(values, q) for q in (0.1, 0.5, 0.9))
    assert min(values) < low < mid < high < max(values)


@pytest.mark.parametrize("x,a,b,expected", [
    # I_x(1, 1) = x; I_x(a, 1) = x**a; I_x(1, b) = 1 - (1 - x)**b.
    (0.3, 1.0, 1.0, 0.3),
    (0.6, 2.5, 1.0, 0.6 ** 2.5),
    (0.2, 1.0, 3.5, 1 - 0.8 ** 3.5),
    # I_{1/2}(a, a) = 1/2 by symmetry.
    (0.5, 45.5, 45.5, 0.5),
    # I_x(1/2, 1/2) = (2/pi) asin(sqrt(x)).
    (0.3, 0.5, 0.5, 2 / math.pi * math.asin(math.sqrt(0.3))),
])
def test_beta_cdf_closed_forms(x, a, b, expected):
    assert _beta_cdf(x, a, b) == pytest.approx(expected, rel=1e-10)
