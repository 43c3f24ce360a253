import math

import pytest
from hypothesis import given, strategies as st

from hhverify import arithmetic_mean, geometric_mean, logarithmic_mean


def test_arithmetic_mean_basic():
    assert arithmetic_mean(0.0, 1.0) == 0.5
    assert arithmetic_mean(2.0, 8.0) == 5.0


def test_geometric_mean_basic():
    assert geometric_mean(2.0, 8.0) == pytest.approx(4.0, rel=1e-15)
    assert geometric_mean(0.0, 5.0) == 0.0
    assert geometric_mean(3.0, 0.0) == 0.0


def test_logarithmic_mean_frozen_values():
    # L(2, 8) = 6 / ln 4
    assert logarithmic_mean(2.0, 8.0) == pytest.approx(4.328085122666891, rel=1e-15)
    # L(1, e) = e - 1
    assert logarithmic_mean(1.0, math.e) == pytest.approx(math.e - 1.0, rel=1e-14)
    assert logarithmic_mean(0.5, math.sqrt(0.5)) == pytest.approx(0.5975838523046155, rel=1e-14)


def test_logarithmic_mean_equal_arguments_is_exact():
    for p in (1e-8, 0.3, 1.0, 7.25, 1e12):
        assert logarithmic_mean(p, p) == p


def test_logarithmic_mean_near_equal_uses_midpoint():
    p = 0.7
    q = p * (1.0 + 1e-9)
    assert logarithmic_mean(p, q) == (p + q) / 2.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_logarithmic_mean_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        logarithmic_mean(bad, 1.0)
    with pytest.raises(ValueError):
        logarithmic_mean(1.0, bad)


def test_geometric_mean_rejects_negative():
    with pytest.raises(ValueError):
        geometric_mean(-1.0, 2.0)


positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(positive, positive)
def test_mean_chain_ordering(p, q):
    """G <= L <= A, up to relative rounding slack."""
    g = geometric_mean(p, q)
    log_m = logarithmic_mean(p, q)
    a = arithmetic_mean(p, q)
    slack = 1e-12 * max(g, log_m, a)
    assert g <= log_m + slack
    assert log_m <= a + slack


@given(positive, positive)
def test_logarithmic_mean_symmetry_bitwise(p, q):
    assert logarithmic_mean(p, q) == logarithmic_mean(q, p)


@given(positive, positive, st.sampled_from([1e-3, 1.0, 1e3]))
def test_logarithmic_mean_homogeneity(p, q, lam):
    scaled = logarithmic_mean(lam * p, lam * q)
    assert scaled == pytest.approx(lam * logarithmic_mean(p, q), rel=1e-12)


@given(positive, positive)
def test_logarithmic_mean_between_arguments(p, q):
    lo, hi = min(p, q), max(p, q)
    value = logarithmic_mean(p, q)
    assert lo - 1e-12 * lo <= value <= hi + 1e-12 * hi


# ---------------------------------------------------------------------------
# finite arguments whose sum overflows

BIG = st.floats(min_value=2.0**1022, max_value=1.7976931348623157e308)
ANY_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@pytest.mark.parametrize("p,q", [(1e308, 1e308), (1.7976931348623157e308, 1.7976931348623157e308)])
def test_means_of_equal_large_arguments_are_the_argument(p, q):
    assert arithmetic_mean(p, q) == p
    assert logarithmic_mean(p, q) == p


def test_logarithmic_mean_whose_atanh_sum_overflows_is_finite():
    # hi + lo overflowed to inf, so the atanh ratio was 0 and the result 0/0
    value = logarithmic_mean(1e308, 1.5e308)
    assert value == logarithmic_mean(1.5e308, 1e308)
    assert value == 2.0 * logarithmic_mean(0.5e308, 0.75e308)
    assert value == pytest.approx(0.5e308 / math.log(1.5), rel=1e-15)


@given(BIG, BIG)
def test_large_means_are_finite_and_twice_the_means_of_the_halves(p, q):
    # halving is exact there, and so is doubling the mean of the halves
    assert arithmetic_mean(p, q) == 2.0 * arithmetic_mean(0.5 * p, 0.5 * q)
    value = logarithmic_mean(p, q)
    assert math.isfinite(value) and min(p, q) <= value <= max(p, q)
    if max(p, q) <= 2.0 * min(p, q):  # the direct branch's two logs round apart at other scales
        assert value == 2.0 * logarithmic_mean(0.5 * p, 0.5 * q)


def _summed_logarithmic_mean(p: float, q: float) -> float:
    """logarithmic_mean as it summed its arguments before any overflow guard."""
    lo, hi = min(p, q), max(p, q)
    diff = hi - lo
    if diff <= 1e-8 * hi:
        return 0.5 * (lo + hi)
    if hi <= 2.0 * lo:
        return diff / (2.0 * math.atanh(diff / (hi + lo)))
    return diff / (math.log(hi) - math.log(lo))


@given(ANY_POSITIVE, ANY_POSITIVE)
def test_means_whose_sum_is_finite_keep_their_bits(p, q):
    if math.isfinite(p + q):
        assert arithmetic_mean(p, q) == 0.5 * (p + q)
        assert logarithmic_mean(p, q) == _summed_logarithmic_mean(p, q)
