"""The verifier's integrals, closed-form sides and verdicts against mpmath.

The closed-form sides and verdicts are checked in the second half of this
module, at 50 digits; the integrals here, at 30.

The four integral kinds the reports rest on are the mean of f (eq4's
lhs), the mean of the symmetric kernel sqrt(f(x) f(a+b-x)) (eq22's lhs),
the mean of the mixed kernel sqrt(f(x) f((a+b-x)/m)**m) at m < 1 (eq11's
rhs) and exp of the mean of ln f (the second term of the dr2 chain, with
its error propagated through exp). The oracle integrates the same
functions with mpmath's tanh-sinh rule at 30 significant digits, which
shares no code with the adaptive Simpson engine, and each reported value
must lie within its own error estimate of it: |value - oracle| <= err_est.

Cases in ROUNDING_ONLY miss that bound, each by at most 2.1 units in the
last place of the value. ``err_est`` estimates the truncation error only,
so it comes out 0 (or far below one ulp) wherever Simpson's rule is
nearly exact: on constants, on the kernels of exponentials (which are
constant), on ln f of exponentials (which is linear) and on quadratics.
The summed and rescaled value still carries floating-point rounding.
Those cases are strict expected failures: an estimate that covers
rounding makes them pass, and the suite then says so.
"""
import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from hhverify import (
    HOLDS,
    INAPPLICABLE,
    VIOLATED,
    FamilySpec,
    Interval,
    family_instantiate,
    margin_tolerance,
    verify_theorem,
    verify_theorems,
)
from hhverify.bounds import VARIANTS

DIGITS = 30
M_MIXED = 0.6
MEMBERS = (
    ("const", {"c": 0.2}),
    ("const", {"c": 1.9}),
    ("exp_linear", {"k": -1.5}),
    ("exp_linear", {"k": 2.0}),
    ("exp_affine", {"c": 0.25, "k": 1.5}),
    ("exp_affine", {"c": 1.7, "k": -0.8}),
    ("poly_shift", {"p": 2.0, "q": 1.0}),
    ("poly_shift", {"p": 0.5, "q": 0.1}),
)
INTERVALS = ((0.0, 1.0), (0.3, 1.7))
KINDS = ("mean_f", "sym_geometric", "mixed_geometric", "exp_mean_log")

ROUNDING_ONLY = frozenset({
    "const(c=0.2)-[0.0,1.0]-mean_f",
    "const(c=0.2)-[0.0,1.0]-sym_geometric",
    "const(c=0.2)-[0.0,1.0]-mixed_geometric",
    "const(c=0.2)-[0.3,1.7]-mean_f",
    "const(c=0.2)-[0.3,1.7]-sym_geometric",
    "const(c=0.2)-[0.3,1.7]-mixed_geometric",
    "const(c=1.9)-[0.0,1.0]-mixed_geometric",
    "const(c=1.9)-[0.3,1.7]-mixed_geometric",
    "exp_linear(k=-1.5)-[0.0,1.0]-sym_geometric",
    "exp_linear(k=-1.5)-[0.0,1.0]-mixed_geometric",
    "exp_linear(k=-1.5)-[0.3,1.7]-sym_geometric",
    "exp_linear(k=-1.5)-[0.3,1.7]-mixed_geometric",
    "exp_linear(k=2.0)-[0.0,1.0]-sym_geometric",
    "exp_linear(k=2.0)-[0.0,1.0]-mixed_geometric",
    "exp_linear(k=2.0)-[0.3,1.7]-sym_geometric",
    "exp_linear(k=2.0)-[0.3,1.7]-mixed_geometric",
    "exp_affine(c=0.25,k=1.5)-[0.0,1.0]-sym_geometric",
    "exp_affine(c=0.25,k=1.5)-[0.0,1.0]-mixed_geometric",
    "exp_affine(c=0.25,k=1.5)-[0.3,1.7]-sym_geometric",
    "exp_affine(c=0.25,k=1.5)-[0.3,1.7]-mixed_geometric",
    "exp_affine(c=1.7,k=-0.8)-[0.0,1.0]-sym_geometric",
    "exp_affine(c=1.7,k=-0.8)-[0.0,1.0]-mixed_geometric",
    "exp_affine(c=1.7,k=-0.8)-[0.3,1.7]-sym_geometric",
    "exp_affine(c=1.7,k=-0.8)-[0.3,1.7]-mixed_geometric",
    "poly_shift(p=2.0,q=1.0)-[0.0,1.0]-mean_f",
    "poly_shift(p=2.0,q=1.0)-[0.3,1.7]-mean_f",
    "const(c=0.2)-[0.0,1.0]-exp_mean_log",
    "const(c=0.2)-[0.3,1.7]-exp_mean_log",
    "exp_linear(k=-1.5)-[0.0,1.0]-exp_mean_log",
    "exp_linear(k=-1.5)-[0.3,1.7]-exp_mean_log",
    "exp_linear(k=2.0)-[0.0,1.0]-exp_mean_log",
    "exp_linear(k=2.0)-[0.3,1.7]-exp_mean_log",
    "exp_affine(c=0.25,k=1.5)-[0.0,1.0]-exp_mean_log",
    "exp_affine(c=0.25,k=1.5)-[0.3,1.7]-exp_mean_log",
    "exp_affine(c=1.7,k=-0.8)-[0.0,1.0]-exp_mean_log",
    "exp_affine(c=1.7,k=-0.8)-[0.3,1.7]-exp_mean_log",
})


def _oracle_f(family: str, params: dict):
    p = {name: mpmath.mpf(value) for name, value in params.items()}
    if family == "const":
        return lambda x: p["c"]
    if family == "exp_linear":
        return lambda x: mpmath.exp(p["k"] * x)
    if family == "exp_affine":
        return lambda x: p["c"] * mpmath.exp(p["k"] * x)
    if family == "poly_shift":
        return lambda x: x ** p["p"] + p["q"]
    raise AssertionError(family)


def _oracle(kind: str, g, a: float, b: float):
    lo, hi, m = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(M_MIXED)
    s = lo + hi
    if kind == "exp_mean_log":
        return mpmath.exp(mpmath.quad(lambda x: mpmath.log(g(x)), [lo, hi]) / (hi - lo))
    integrand = {
        "mean_f": g,
        "sym_geometric": lambda x: mpmath.sqrt(g(x) * g(s - x)),
        "mixed_geometric": lambda x: mpmath.sqrt(g(x) * g((s - x) / m) ** m),
    }[kind]
    return mpmath.quad(integrand, [lo, hi]) / (hi - lo)


def _verifier(kind: str, spec: FamilySpec, a: float, b: float) -> tuple[float, float]:
    """(value, err_est) of one integral kind, read off the report or chain term that uses it."""
    f, iv = family_instantiate(spec), Interval(a, b)
    if kind == "exp_mean_log":
        term = verify_theorem("dr2", f, iv, check_hypothesis=False).terms[1]
        assert term.label == "exp_mean_log"
        return term.value, term.err_est
    eq4, eq22, eq11 = verify_theorems(["eq4", "eq22", "eq11"], f, iv, m=M_MIXED, check_hypothesis=False)
    # the closed-form sides of eq4 and eq22 and the point value of eq11
    # carry no error, so quad_err is the integral's own estimate
    return {
        "mean_f": (eq4.lhs, eq4.quad_err),
        "sym_geometric": (eq22.lhs, eq22.quad_err),
        "mixed_geometric": (eq11.rhs, eq11.quad_err),
    }[kind]


def _case_id(family: str, params: dict, interval: tuple, kind: str) -> str:
    member = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{family}({member})-[{interval[0]},{interval[1]}]-{kind}"


CASES = [
    pytest.param(
        family, params, interval, kind,
        id=_case_id(family, params, interval, kind),
        marks=[pytest.mark.xfail(strict=True, reason="err_est omits floating-point rounding")]
        if _case_id(family, params, interval, kind) in ROUNDING_ONLY else [],
    )
    for family, params in MEMBERS
    for interval in INTERVALS
    for kind in KINDS
]


@pytest.mark.parametrize("family,params,interval,kind", CASES)
def test_integral_within_its_error_estimate_of_mpmath(family, params, interval, kind):
    a, b = interval
    value, err_est = _verifier(kind, FamilySpec(family, params), a, b)
    with mpmath.workdps(DIGITS):
        oracle = _oracle(kind, _oracle_f(family, params), a, b)
        error = abs(mpmath.mpf(value) - oracle)
    assert error <= err_est, (value, err_est, float(oracle))


# ---------------------------------------------------------------------------
# The closed-form sides and verdicts against mpmath at 50 digits
#
# For f = c*exp(k*x) every side has a closed form. The oracle computes them
# in mpmath from the formulas of the ``bounds`` docstrings, not through
# ``bounds``: the endpoint values f(a), f(b), f(a/m) and f(b/m), the
# logarithmic mean L(p, q) = (p - q)/(ln p - ln q), the ratios phi, ell and
# theta and the kernel (r**alpha - 1)/(alpha*ln r), which is 1 at r = 1 and
# inapplicable above it. Each is carried by its logarithm, so that L and the
# kernel become q*expm1(u)/u, with no cancellation when p is near q or r
# near 1. The left sides are the mean of f, c*exp(k*a)*expm1(k*w)/(k*w)
# with w = b - a, the symmetric kernel, the constant c*exp(k*(a+b)/2), and
# the midpoint value f((a+b)/2); eq11's right side is the mixed kernel, the
# constant c**((1+m)/2)*exp(k*(a+b)/2).

CLOSED_FORM_DIGITS = 50
CLOSED_FORM_REL = 1e-12
# A ratio in (1, 1 + RATIO_TIE] may round to within RATIO_ONE_REL of 1 in
# double precision, where the kernel takes its limit 1, or stay above it,
# where the side is inapplicable, so the oracle allows both there. The ratios
# are formed from logs of size up to about 16 on these ranges, which double
# precision holds to well below RATIO_TIE - RATIO_ONE_REL.
RATIO_TIE = 1e-13
GATE_THEOREMS = ("eq4", "eq11", "eq22", "eq31", "eq42")


# exp_affine and its two slices, const (k = 0) and exp_linear (c = 1): each
# slice is built from its own family tree, whose values differ bit for bit
# from exp_affine's, and is checked against the oracle at the slice's (c, k).
SLICE_PARAMS = {"exp_affine": ("c", "k"), "const": ("c",), "exp_linear": ("k",)}


@st.composite
def _point_checks_points(draw):
    """A member of exp_affine or a slice, and (a, b, alpha, m), from the ranges of the point_checks requests."""
    family = draw(st.sampled_from(sorted(SLICE_PARAMS)))
    c = draw(st.floats(0.2, 2.0)) if "c" in SLICE_PARAMS[family] else 1.0
    k = draw(st.floats(-2.0, 2.0)) if "k" in SLICE_PARAMS[family] else 0.0
    a = draw(st.floats(0.0, 1.5))
    b = draw(st.floats(a + 0.1, 2.0))
    alpha, m, variant = draw(st.floats(0.25, 1.0)), draw(st.floats(0.25, 1.0)), draw(st.sampled_from(VARIANTS))
    return family, c, k, a, b, alpha, m, variant


def _mean_of_exp(lq, u):
    """q*(e**u - 1)/u for q = exp(lq), the mean of exp over a segment where its log rises by u."""
    return mpmath.exp(lq) * (mpmath.expm1(u) / u if u else 1)


def _log_mean(lp, lq):
    """L(p, q) of p = exp(lp) and q = exp(lq)."""
    return _mean_of_exp(lq, lp - lq)


def _kernel_sides(coefficient, lr, alpha) -> list:
    """The values coefficient * kernel(exp(lr), alpha) may take; None is inapplicable."""
    if lr > mpmath.log1p(RATIO_TIE):
        return [None]
    if lr > 0:
        return [coefficient, None]
    return [coefficient * _mean_of_exp(0, alpha * lr)]


def _oracle_sides(c, k, a, b, alpha, m, variant) -> dict:
    """theorem -> (lhs, the values its rhs may take), for f = c*exp(k*x)."""
    c, k, a, b, alpha, m = (mpmath.mpf(value) for value in (c, k, a, b, alpha, m))
    lc = mpmath.log(c)
    lfa, lfb, lfam, lfbm = lc + k * a, lc + k * b, lc + k * a / m, lc + k * b / m
    lphi, lell = lfa - m * lfbm, lfb - m * lfam
    root = mpmath.mpf(0.5) if variant == "corrected" else 1
    mean_f = _mean_of_exp(lfa, k * (b - a))
    kernel = c * mpmath.exp(k * (a + b) / 2)
    eq31 = []
    for phi_side in _kernel_sides(mpmath.exp(m * lfbm), lphi, alpha):
        for ell_side in _kernel_sides(mpmath.exp(m * lfam), lell, alpha):
            usable = [side for side in (phi_side, ell_side) if side is not None]
            eq31.append(min(usable) if usable else None)
    return {
        "eq4": (mean_f, [min(_log_mean(lfa, m * lfbm), _log_mean(lfb, m * lfam))]),
        "eq11": (kernel, [c ** ((1 + m) / 2) * mpmath.exp(k * (a + b) / 2)]),
        "eq22": (kernel, [_log_mean(root * (lfa + lfb), root * m * (lfam + lfbm))]),
        "eq31": (mean_f, eq31),
        "eq42": (kernel, _kernel_sides(mpmath.exp(root * m * (lfam + lfbm)), root * (lphi + lell), alpha)),
    }


def _close(value, oracle) -> bool:
    return abs(mpmath.mpf(value) - oracle) <= CLOSED_FORM_REL * abs(oracle)


def _misses(family, c, k, a, b, alpha, m, variant) -> list[str]:
    """Where the sides or verdicts of c*exp(k*x), built as ``family``, differ from the oracle's."""
    spec = FamilySpec(family, {name: {"c": c, "k": k}[name] for name in SLICE_PARAMS[family]})
    reports = verify_theorems(
        GATE_THEOREMS, family_instantiate(spec), Interval(a, b), m=m, alpha=alpha, variant=variant,
        check_hypothesis=False, family=spec,
    )
    misses = []
    with mpmath.workdps(CLOSED_FORM_DIGITS):
        oracle = _oracle_sides(c, k, a, b, alpha, m, variant)
        for report in reports:
            lhs, rhs_sides = oracle[report.theorem]
            if report.lhs is None:
                misses.append(f"{report.theorem}: inconclusive ({report.diagnostics})")
                continue
            if report.theorem == "eq11":
                closed_form_ok = _close(report.lhs, lhs)  # the midpoint value; the rhs is an integral
                rhs = rhs_sides[0]
            elif report.rhs is None:
                closed_form_ok, rhs = None in rhs_sides, None
            else:
                rhs = min((side for side in rhs_sides if side is not None), default=None,
                          key=lambda side: abs(mpmath.mpf(report.rhs) - side))
                closed_form_ok = rhs is not None and _close(report.rhs, rhs)
            if not closed_form_ok:
                misses.append(f"{report.theorem}: lhs {report.lhs!r}, rhs {report.rhs!r}, oracle {lhs}, {rhs_sides}")
                continue
            if rhs is None:
                expected = INAPPLICABLE
            else:
                margin = rhs - lhs
                if abs(margin) <= 2 * margin_tolerance(float(lhs), float(rhs), report.quad_err):
                    continue  # too close to call
                expected = HOLDS if margin > 0 else VIOLATED
            if report.verdict != expected:
                misses.append(f"{report.theorem}: {report.verdict}, oracle {expected} at margin {rhs - lhs}")
    return misses


@settings(deadline=None, max_examples=600)  # about 200 per family
@given(_point_checks_points())
def test_closed_form_sides_and_verdicts_agree_with_mpmath(point):
    assert _misses(*point) == []
