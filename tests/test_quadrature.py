import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hhverify import (
    FamilySpec,
    IntegrandError,
    Interval,
    QuadResult,
    family_instantiate,
    integrate,
    mean_integral,
    parse,
    registered_families,
)
from hhverify.quadrature import log_integrand, mixed_geometric_integrand, sym_geometric_integrand, value_integrand
from hhverify.verify import _IntegralCache


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


def test_mean_integral_on_an_interval_too_narrow_to_average_over_raises_before_evaluating():
    calls = []
    with pytest.raises(IntegrandError, match=r"^integrand failed at x=0.0: interval width 5e-324 is too narrow"):
        mean_integral(calls.append, Interval(0.0, 5e-324))
    assert calls == []


@pytest.mark.parametrize("widths_of_min", [0.3, 0.5, 1.0, 2.0, 3.0, 11.99])
def test_mean_integral_refuses_a_subnormal_panel_weight(widths_of_min):
    # The means of exp(x) at 0.3 to 2 were off by 18 to 2 ulps with err_est 0.
    iv = Interval(0.0, widths_of_min * sys.float_info.min)
    with pytest.raises(IntegrandError, match=r"the panel weight \(b-a\)/12 is subnormal$"):
        mean_integral(parse("exp(x)"), iv)


def test_mean_integral_of_the_narrowest_width_it_averages_is_exact():
    iv = Interval(0.0, 12.0 * sys.float_info.min)
    assert iv.width / 12.0 == sys.float_info.min
    assert mean_integral(parse("exp(x)"), iv) == QuadResult(1.0, 0.0, 5, True)


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


# ---------------------------------------------------------------------------
# The generated Simpson recursion against the one it replaced
#
# ``_reference_integrate`` is ``integrate`` as it was before the recursion
# was generated with each integrand's fast path inlined: one Python call per
# point, and the same call through ``_reference_checked`` where that fails.
# The generated code must give the same QuadResult bit for bit, or raise the
# same exception with the same abscissa and message.


def _reference_checked(g, x):
    try:
        y = g(x)
    except IntegrandError:
        raise
    except Exception as exc:
        raise IntegrandError(x, exc) from exc
    if not math.isfinite(y):
        raise IntegrandError(x, f"non-finite integrand value {y!r}")
    return y


def _reference_simpson(h, fa, fm, fb):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _reference_adaptive(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if not (a < lm < m < rm < b):
        return whole, abs(whole), False, 0
    try:
        flm = g(lm)
        frm = g(rm)
    except Exception:
        flm = frm = math.nan
    if not (math.isfinite(flm) and math.isfinite(frm)):
        flm = _reference_checked(g, lm)
        frm = _reference_checked(g, rm)
    left = _reference_simpson(m - a, fa, flm, fm)
    right = _reference_simpson(b - m, fm, frm, fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, True, 2
    if not math.isfinite(delta):
        raise IntegrandError(m, f"Simpson sum on [{a!r}, {b!r}] is not finite")
    if depth <= 0:
        return left + right + delta / 15.0, abs(delta), False, 2
    lv, le, lc, ln = _reference_adaptive(g, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rv, re, rc, rn = _reference_adaptive(g, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re, lc and rc, 2 + ln + rn


def _reference_integrate(g, iv, tol=1e-10):
    a, b = iv.a, iv.b
    fa = _reference_checked(g, a)
    fm = _reference_checked(g, 0.5 * (a + b))
    fb = _reference_checked(g, b)
    whole = _reference_simpson(b - a, fa, fm, fb)
    if not math.isfinite(whole):
        raise IntegrandError(0.5 * (a + b), f"Simpson sum on [{a!r}, {b!r}] is not finite")
    value, err, converged, evals = _reference_adaptive(g, a, b, fa, fm, fb, whole, tol, 60)
    return QuadResult(value, err, 3 + evals, converged)


def _quad_outcome(thunk):
    """The bits of a QuadResult, or the class, abscissa and message of what was raised."""
    try:
        r = thunk()
    except Exception as exc:
        return ("raised", type(exc), getattr(exc, "abscissa", None), str(exc))
    return ("value", r.value.hex(), r.err_est.hex(), r.evals, r.converged)


def _assert_same(g, reference, iv, tol):
    expected = _quad_outcome(lambda: _reference_integrate(reference, iv, tol))
    assert _quad_outcome(lambda: integrate(g, iv, tol)) == expected


def _integrands(f, s, m):
    """Each integrand of the package and the single-point formula it replaces."""
    ev = f.evaluate
    return (
        (value_integrand(f), ev),
        (log_integrand(f), lambda x: math.log(ev(x))),
        (sym_geometric_integrand(f, s), lambda x: math.exp(0.5 * (math.log(ev(x)) + math.log(ev(s - x))))),
        (
            mixed_geometric_integrand(f, s, m),
            lambda x: math.exp(0.5 * (math.log(ev(x)) + m * math.log(ev((s - x) / m)))),
        ),
    )


# Values stay below about 2,000 on [0, 4]. The tolerance is absolute: where
# a value's rounding exceeds it, every panel refines to the depth cap.
_PARAMS = {
    "c": st.floats(min_value=0.01, max_value=4.0),
    "k": st.floats(min_value=-1.5, max_value=1.5),
    "p": st.floats(min_value=-1.0, max_value=3.0),
    "q": st.floats(min_value=1e-6, max_value=2.0),
}


@st.composite
def _members(draw):
    family = draw(st.sampled_from(sorted(registered_families())))
    params = {name: draw(_PARAMS[name]) for name in registered_families()[family]}
    return FamilySpec(family, params)


# expressions that fail inside the interval, or only in a kernel at s - x
_FAILING = ("x-0.5", "(x-0.25)^2", "ln(x)", "ln(3-x)", "sqrt(x-1)+1", "exp(-x)*(x-1)", "x")
_functions = st.one_of(_members().map(family_instantiate), st.sampled_from(_FAILING).map(parse))


_TOLS = st.sampled_from((1e-11, 1e-9, 1e-6, 1e-3, 1.0))
_WIDTHS = st.one_of(st.floats(min_value=1e-3, max_value=3.0), st.sampled_from((1e-300, 1e-200, 1e-15, 4e-16, 1e-9)))


@settings(deadline=None, max_examples=150)
@given(
    _functions,
    st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0)),
    _WIDTHS,
    _TOLS,
    st.floats(min_value=0.05, max_value=1.0),
)
@example(family_instantiate(FamilySpec("poly_shift", {"p": -1.0, "q": 1.0})), 0.0, 1.0, 1e-10, 0.5)  # raises at 0
@example(family_instantiate(FamilySpec("exp_linear", {"k": 800.0})), 0.0, 1.0, 1e-10, 0.5)  # overflows inside
@example(family_instantiate(FamilySpec("poly_shift", {"p": 0.5, "q": 1e-6})), 0.0, 2.0, 1e-13, 0.25)  # sqrt at 0
@example(family_instantiate(FamilySpec("const", {"c": 2.0})), 1.0, 4e-16, 1e-13, 1.0)  # a few ulps wide
@example(parse("(x-0.25)^2"), 0.0, 1.0, 1e-10, 0.6)  # 0.0 at an abscissa the recursion reaches
def test_integrands_match_the_reference_recursion(f, a, width, tol, m):
    b = a + width
    assume(a < b)
    iv = Interval(a, b)
    for g, reference in _integrands(f, a + b, m):
        _assert_same(g, reference, iv, tol)
    expected = _quad_outcome(lambda: _reference_integrate(f.evaluate, iv, tol))
    assert _quad_outcome(lambda: integrate(f.evaluate, iv, tol)) == expected


def _reference_mean(g, iv, tol):
    r = _reference_integrate(g, iv, tol)
    s = 1.0 / iv.width
    return QuadResult(r.value * s, r.err_est * s, r.evals, r.converged)


@settings(deadline=None, max_examples=100)
@given(_functions, st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=2.0)), _WIDTHS, _TOLS)
@example(parse("ln(x)"), 0.0, 1.0, 1e-10)  # fails at the left end
@example(parse("x-0.5"), 0.0, 1.0, 1e-10)  # fails inside
@example(parse("exp(x)"), 1.0, 1e-300, 1e-10)  # too narrow to average over
def test_mean_of_f_has_one_path(f, a, width, tol):
    # The public mean of a FunctionExpr is the integral cache's, and both
    # are the reference recursion on f.evaluate, scaled by 1/(b-a).
    b = a + width
    assume(a < b)
    iv = Interval(a, b)
    outcome = _quad_outcome(lambda: mean_integral(f, iv, tol))
    assert _quad_outcome(lambda: _IntegralCache(f, iv, tol).mean_f()) == outcome
    if iv.width / 12.0 >= sys.float_info.min:
        assert outcome == _quad_outcome(lambda: _reference_mean(f.evaluate, iv, tol))
    else:
        assert outcome[:2] == ("raised", IntegrandError) and "too narrow to average over" in outcome[3]


def test_plain_callable_integrand_error_is_raised_unwrapped():
    err = IntegrandError(0.25, "raised by the integrand itself")

    def g(x):
        raise err

    with pytest.raises(IntegrandError) as info:
        integrate(g, Interval(0.0, 1.0))
    assert info.value is err


def _first_fails_deep(x):
    # the recursion, left half first, meets 0.05859375 before 0.1171875
    if x in (0.05859375, 0.1171875):
        raise ZeroDivisionError(f"pole at {x}")
    return math.sin(20.0 * x) + 2.0


_C = 1.0 / math.pi

_PLAIN = (
    (lambda x: x**3 - 2.0 * x**2 + 3.0 * x - 1.0, Interval(0.0, 2.0)),  # 5 evals
    (math.exp, Interval(0.0, 2.0)),
    (lambda x: 0.0 if x < _C else 1.0, Interval(0.0, 1.0)),  # a step: reaches the depth cap
    (lambda x: 1.0 / math.sqrt(abs(x - _C)), Interval(0.0, 1.0)),  # lands on the singularity
    (lambda x: 1.0 / x, Interval(0.0, 1.0)),  # fails at the left end
    (lambda x: math.log(x), Interval(0.0, 1.0)),
    (lambda x: 1e308 if x > 0.9 else 1.0, Interval(0.0, 1.0)),  # Simpson sum overflows on a refined panel
    (lambda x: 1e308, Interval(0.0, 1.0)),  # and at the root
    (lambda x: math.nan if x == 0.25 else 1.0, Interval(0.0, 1.0)),
    (_first_fails_deep, Interval(0.0, 1.0)),
    (lambda x: 2.9e307, Interval(0.0, 1.0)),
    (lambda x: x, Interval(1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0))),  # narrower than the spacing
)


@pytest.mark.parametrize("tol", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize("g,iv", _PLAIN)
def test_plain_callables_match_the_reference_recursion(g, iv, tol):
    _assert_same(g, g, iv, tol)


def test_plain_callable_reference_cases_cover_every_outcome():
    outcomes = [_quad_outcome(lambda: _reference_integrate(g, iv, 1e-10)) for g, iv in _PLAIN]
    assert outcomes[0][3] == 5
    assert outcomes[2][4] is False  # the depth cap
    assert outcomes[6] == (
        "raised", IntegrandError, 0.875, "integrand failed at x=0.875: Simpson sum on [0.75, 1.0] is not finite",
    )
    assert outcomes[9] == (
        "raised", IntegrandError, 0.05859375, "integrand failed at x=0.05859375: pole at 0.05859375",
    )
    assert outcomes[-1][4] is False  # narrower than the float spacing
