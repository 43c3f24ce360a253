"""The verifier's integrals against mpmath at 30 digits.

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

from hhverify import FamilySpec, Interval, family_instantiate, verify_theorem, verify_theorems

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
