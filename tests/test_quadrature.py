import math
import random

import pytest

from hhverify import IntegrandError, Interval, integrate, mean_integral, parse


class TestInterval:
    def test_width(self):
        assert Interval(0.5, 2.0).width == 1.5

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (-0.5, 1.0), (0.0, 0.0)])
    def test_rejects_bad_endpoints(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


def test_cubic_is_integrated_exactly():
    # Simpson with Richardson extrapolation is exact on cubics; the first
    # estimate already matches, so the whole thing costs five evaluations.
    r = integrate(lambda x: x**3 - 2.0 * x**2 + 3.0 * x - 1.0, Interval(0.0, 2.0))
    assert abs(r.value - 8.0 / 3.0) <= 1e-13
    assert r.converged
    assert r.evals == 5


def test_exp_within_error_estimate():
    r = integrate(math.exp, Interval(0.0, 2.0), tol=1e-10)
    exact = math.exp(2.0) - 1.0
    assert r.converged
    assert abs(r.value - exact) <= r.err_est + 1e-12


def test_result_is_deterministic():
    first = integrate(math.exp, Interval(0.0, 2.0), tol=1e-9)
    second = integrate(math.exp, Interval(0.0, 2.0), tol=1e-9)
    assert first == second


@pytest.mark.parametrize("f", [math.exp, lambda x: 1.0 / (1.0 + x * x), lambda x: math.exp(x * x)])
def test_tightening_tol_does_not_worsen_error(f):
    estimates = [integrate(f, Interval(0.0, 1.5), tol=t).err_est for t in (1e-6, 1e-8, 1e-10)]
    assert estimates[0] >= estimates[1] >= estimates[2]


def test_split_additivity():
    whole = integrate(math.exp, Interval(0.0, 2.0), tol=1e-10)
    rng = random.Random(7)
    for _ in range(100):
        c = rng.uniform(1e-6, 2.0 - 1e-6)
        left = integrate(math.exp, Interval(0.0, c), tol=1e-10)
        right = integrate(math.exp, Interval(c, 2.0), tol=1e-10)
        budget = 2.0 * (whole.err_est + left.err_est + right.err_est) + 1e-12
        assert abs(left.value + right.value - whole.value) <= budget


def test_step_discontinuity_reports_nonconvergence():
    # A jump keeps the local Richardson defect proportional to the slab
    # width while the budget shrinks at the same rate, so the straddling
    # slab bottoms out and the result is flagged, even though the value
    # itself ends up accurate.
    c = 1.0 / math.pi
    r = integrate(lambda x: 0.0 if x < c else 1.0, Interval(0.0, 1.0), tol=1e-12)
    assert not r.converged
    assert abs(r.value - (1.0 - c)) <= 1e-9


def test_interior_singularity_raises_with_abscissa():
    # Bisection midpoints eventually land exactly on the float 1/pi.
    c = 1.0 / math.pi
    with pytest.raises(IntegrandError) as info:
        integrate(lambda x: 1.0 / math.sqrt(abs(x - c)), Interval(0.0, 1.0), tol=1e-10)
    assert info.value.abscissa == c


def test_blowup_at_left_endpoint_reports_abscissa():
    with pytest.raises(IntegrandError) as info:
        integrate(lambda x: 1.0 / x, Interval(0.0, 1.0))
    assert info.value.abscissa == 0.0


def test_first_failing_abscissa_is_reported():
    # the first refinement evaluates x = 0.25, then x = 0.75
    def g(x):
        if x == 0.25:
            return math.nan
        if x == 0.75:
            raise ValueError("later failure")
        return 1.0

    with pytest.raises(IntegrandError) as info:
        integrate(g, Interval(0.0, 1.0))
    assert info.value.abscissa == 0.25
    assert str(info.value) == "integrand failed at x=0.25: non-finite integrand value nan"


def test_nonfinite_value_rejected():
    with pytest.raises(IntegrandError):
        integrate(lambda x: math.nan, Interval(0.0, 1.0))


def test_mean_integral_scales_by_width():
    iv = Interval(0.0, 2.0)
    plain = integrate(math.exp, iv, tol=1e-10)
    mean = mean_integral(math.exp, iv, tol=1e-10)
    assert mean.value == plain.value / iv.width
    assert mean.err_est == plain.err_est / iv.width
    assert mean.evals == plain.evals


def test_mean_integral_accepts_function_expr():
    f = parse("exp(x)")
    r = mean_integral(f, Interval(0.0, 1.0), tol=1e-10)
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-12)


def test_tol_below_floor_rejected():
    with pytest.raises(ValueError):
        integrate(math.exp, Interval(0.0, 1.0), tol=1e-14)


def test_simpson_sum_that_overflows_at_the_root_raises():
    calls = []

    def g(x):
        calls.append(x)
        return 1e308  # finite, but 1e308 + 4e308 + 1e308 is not

    with pytest.raises(IntegrandError) as info:
        integrate(g, Interval(0.0, 1.0))
    assert str(info.value) == "integrand failed at x=0.5: Simpson sum on [0.0, 1.0] is not finite"
    assert calls == [0.0, 0.5, 1.0]


def test_simpson_sum_that_overflows_on_a_refined_panel_raises():
    # the root's sum is finite; its right half, with 1e308 at 0.75 and 1, is not
    with pytest.raises(IntegrandError) as info:
        integrate(lambda x: 1e308 if x > 0.6 else 1.0, Interval(0.0, 1.0))
    assert info.value.abscissa == 0.5
    assert str(info.value) == "integrand failed at x=0.5: Simpson sum on [0.0, 1.0] is not finite"


def test_largest_constant_whose_simpson_sum_is_finite_still_integrates():
    r = integrate(lambda x: 2.9e307, Interval(0.0, 1.0))
    assert (r.value, r.err_est, r.evals, r.converged) == (2.8999999999999995e307, 0.0, 5, True)
