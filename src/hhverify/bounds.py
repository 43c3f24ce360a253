"""Bound sides and refinement chains for the integral inequalities.

Every theorem handled by this package compares an integral mean of a
positive function f against closed forms built from endpoint values, the
scaled endpoint values f(a/m)**m and f(b/m)**m, and averages of the
exponential family t -> r**(t**alpha). All products and powers of function
values are computed in log space so that nothing overflows before it has
to. Inapplicable sides (endpoint ratios above one, where the closed form
stops being an upper bound) are reported as data, never raised.

Two inequalities exist in a printed and a corrected variant. The printed
closed forms compare the geometric-mean integral

    (1/(b-a)) * integral of sqrt(f(x) f(a+b-x))

against L(f(a)f(b), (f(a/m)f(b/m))**m), respectively against
(f(a/m)f(b/m))**m times the exponential-mean kernel of theta. Those forms
are refuted by constants (f = 1/2, m = 1 gives 1/2 on the left and 1/4 on
the right). The corrected variants carry the square roots that the
product-then-root derivation actually yields:

    L(sqrt(f(a)f(b)), (f(a/m)f(b/m))**(m/2))        and
    (f(a/m)f(b/m))**(m/2) * kernel(sqrt(theta), alpha).

Both variants are implemented; "corrected" is the default everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .classify import ClassParams
from .funcspec import FunctionExpr, generate
from .means import arithmetic_mean, geometric_mean, logarithmic_mean
from .quadrature import Interval, QuadResult, integrate, mean_integral

__all__ = [
    "RATIO_ONE_REL",
    "RATIO_ABOVE_ONE",
    "VARIANTS",
    "BoundSide",
    "RatioSet",
    "ChainTerm",
    "ChainValues",
    "IntegralVsClosed",
    "ValueVsIntegral",
    "BranchedBound",
    "exp_mean_factor",
    "check_variant",
    "ratio_set",
    "bound_eq4",
    "bound_eq11_pair",
    "bound_eq22_pair",
    "bound_eq31",
    "bound_eq42",
    "chain_dr1",
    "chain_dr2",
]

# Ratios within this relative distance of 1 take the exact limit value.
RATIO_ONE_REL = 1e-14

RATIO_ABOVE_ONE = "ratio_above_one"
VARIANTS = ("printed", "corrected")


@dataclass(frozen=True)
class BoundSide:
    """One closed-form side of an inequality, or the reason it does not apply."""

    value: Optional[float]
    err_est: float = 0.0
    applicable: bool = True
    reason: Optional[str] = None

    @staticmethod
    def inapplicable(reason: str) -> "BoundSide":
        return BoundSide(value=None, err_est=0.0, applicable=False, reason=reason)


@dataclass(frozen=True)
class RatioSet:
    """Endpoint ratios phi = f(a)/f(b/m)**m, ell = f(b)/f(a/m)**m, theta = phi*ell."""

    phi: float
    ell: float
    theta: float


@dataclass(frozen=True)
class ChainTerm:
    label: str
    value: float
    err_est: float = 0.0


@dataclass(frozen=True)
class ChainValues:
    """Ordered labeled terms of a refinement chain (each should not exceed the next)."""

    terms: tuple[ChainTerm, ...]


@dataclass(frozen=True)
class IntegralVsClosed:
    """lhs is an integral mean, rhs a closed form; the claim is lhs <= rhs."""

    lhs: QuadResult
    rhs: BoundSide


@dataclass(frozen=True)
class ValueVsIntegral:
    """lhs is a point value, rhs an integral mean; the claim is lhs <= rhs."""

    lhs: float
    rhs: QuadResult


@dataclass(frozen=True)
class BranchedBound:
    """An IntegralVsClosed whose rhs is the minimum of labeled branches."""

    lhs: QuadResult
    rhs: BoundSide
    branches: Mapping[str, BoundSide]


def exp_mean_factor(r: float, alpha: float) -> BoundSide:
    """Closed-form upper bound for the average of r**(t**alpha) over t in [0, 1].

    For 0 < r < 1 the average is at most (r**alpha - 1)/(alpha * ln r),
    evaluated here as expm1(u)/u with u = alpha*ln(r) to stay exact near
    r = 1; at r = 1 (within RATIO_ONE_REL relative) the value is exactly 1.
    For r > 1 the closed form is not an upper bound, so the side comes back
    inapplicable with reason "ratio_above_one".

    Raises:
        ValueError: r is not a positive finite real, or alpha is outside (0, 1].
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"ratio must be a positive finite real, got {r!r}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    if abs(r - 1.0) <= RATIO_ONE_REL * max(1.0, r):
        return BoundSide(value=1.0)
    if r > 1.0:
        return BoundSide.inapplicable(RATIO_ABOVE_ONE)
    u = alpha * math.log(r)
    return BoundSide(value=math.expm1(u) / u)


def _log_f(f: FunctionExpr, x: float) -> float:
    return math.log(f.evaluate(x))


def ratio_set(f: FunctionExpr, iv: Interval, m: float) -> RatioSet:
    """Compute the endpoint ratios of ``f`` on ``iv`` in log space.

    theta is formed from the sum of the log ratios, so it agrees with
    phi*ell to rounding even when the factors are extreme.
    """
    _check_m(m)
    la = _log_f(f, iv.a)
    lb = _log_f(f, iv.b)
    lam = _log_f(f, iv.a / m)
    lbm = _log_f(f, iv.b / m)
    log_phi = la - m * lbm
    log_ell = lb - m * lam
    return RatioSet(
        phi=math.exp(log_phi),
        ell=math.exp(log_ell),
        theta=math.exp(log_phi + log_ell),
    )


def _check_m(m: float) -> None:
    if not (0.0 < m <= 1.0):
        raise ValueError(f"m must lie in (0, 1], got {m!r}")


def check_variant(variant: str) -> None:
    """Raise ValueError unless ``variant`` is one of VARIANTS."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


# The integrands below are generated with f's body inlined at each point
# (see funcspec.generate). While f's values there are finite and positive
# they return the bits of the log-space formula in their last line;
# otherwise that last line, which evaluates f through the checked
# FunctionExpr.evaluate, raises exactly what the formula raises.

_SYM_KERNEL = """\
def g(x):
    try:
        fx = f(x)
        u = s - x
        fu = f(u)
    except (ArithmeticError, ValueError):
        fx = fu = nan
    if 0.0 < fx < inf and 0.0 < fu < inf:
        return exp(0.5 * (log(fx) + log(fu)))
    return exp(0.5 * (log(evaluate(x)) + log(evaluate(s - x))))
"""

_MIXED_KERNEL = """\
def g(x):
    try:
        fx = f(x)
        u = (s - x) / m
        fu = f(u)
    except (ArithmeticError, ValueError):
        fx = fu = nan
    if 0.0 < fx < inf and 0.0 < fu < inf:
        return exp(0.5 * (log(fx) + m * log(fu)))
    return exp(0.5 * (log(evaluate(x)) + m * log(evaluate((s - x) / m))))
"""

_LOG_F = """\
def g(x):
    try:
        fx = f(x)
    except (ArithmeticError, ValueError):
        fx = nan
    if 0.0 < fx < inf:
        return log(fx)
    return log(evaluate(x))
"""


def sym_geometric_integrand(f: FunctionExpr, endpoint_sum: float) -> Callable[[float], float]:
    """Integrand sqrt(f(x) * f(s - x)) with s = a + b, in log space."""
    return generate(f, _SYM_KERNEL, s=endpoint_sum, evaluate=f.evaluate)


def mixed_geometric_integrand(f: FunctionExpr, endpoint_sum: float, m: float) -> Callable[[float], float]:
    """Integrand sqrt(f(x) * f((s - x)/m)**m) with s = a + b, in log space."""
    return generate(f, _MIXED_KERNEL, s=endpoint_sum, m=m, evaluate=f.evaluate)


def log_integrand(f: FunctionExpr) -> Callable[[float], float]:
    """Integrand ln f(x)."""
    return generate(f, _LOG_F, evaluate=f.evaluate)


def eq4_rhs(f: FunctionExpr, iv: Interval, m: float) -> BoundSide:
    """min of L(f(a), f(b/m)**m) and L(f(b), f(a/m)**m)."""
    _check_m(m)
    fa = f.evaluate(iv.a)
    fb = f.evaluate(iv.b)
    fam_m = math.exp(m * _log_f(f, iv.a / m))
    fbm_m = math.exp(m * _log_f(f, iv.b / m))
    return BoundSide(value=min(logarithmic_mean(fa, fbm_m), logarithmic_mean(fb, fam_m)))


def eq22_rhs(f: FunctionExpr, iv: Interval, m: float, variant: str = "corrected") -> BoundSide:
    _check_m(m)
    check_variant(variant)
    la, lb = _log_f(f, iv.a), _log_f(f, iv.b)
    lam, lbm = _log_f(f, iv.a / m), _log_f(f, iv.b / m)
    if variant == "printed":
        p = math.exp(la + lb)
        q = math.exp(m * (lam + lbm))
    else:
        p = math.exp(0.5 * (la + lb))
        q = math.exp(0.5 * m * (lam + lbm))
    return BoundSide(value=logarithmic_mean(p, q))


def _scaled(side: BoundSide, coefficient: float) -> BoundSide:
    if not side.applicable:
        return side
    return BoundSide(value=coefficient * side.value, err_est=coefficient * side.err_est)


def eq31_branches(f: FunctionExpr, iv: Interval, params: ClassParams) -> tuple[BoundSide, dict[str, BoundSide]]:
    """rhs and both labeled branches of the endpoint-ratio mean bound.

    The "phi" branch scales the kernel at phi by f(b/m)**m, the "ell"
    branch scales the kernel at ell by f(a/m)**m; the rhs is the minimum
    of the applicable branches, or inapplicable when both ratios exceed 1.
    """
    ratios = ratio_set(f, iv, params.m)
    coef_phi = math.exp(params.m * _log_f(f, iv.b / params.m))
    coef_ell = math.exp(params.m * _log_f(f, iv.a / params.m))
    branches = {
        "phi": _scaled(exp_mean_factor(ratios.phi, params.alpha), coef_phi),
        "ell": _scaled(exp_mean_factor(ratios.ell, params.alpha), coef_ell),
    }
    usable = [side.value for side in branches.values() if side.applicable]
    rhs = BoundSide(value=min(usable)) if usable else BoundSide.inapplicable(RATIO_ABOVE_ONE)
    return rhs, branches


def eq42_rhs(f: FunctionExpr, iv: Interval, params: ClassParams, variant: str = "corrected") -> BoundSide:
    check_variant(variant)
    ratios = ratio_set(f, iv, params.m)
    lam, lbm = _log_f(f, iv.a / params.m), _log_f(f, iv.b / params.m)
    if variant == "printed":
        coefficient = math.exp(params.m * (lam + lbm))
        ratio = ratios.theta
    else:
        coefficient = math.exp(0.5 * params.m * (lam + lbm))
        ratio = math.sqrt(ratios.theta)
    return _scaled(exp_mean_factor(ratio, params.alpha), coefficient)


# ---------------------------------------------------------------------------
# assembled per-inequality operations


def bound_eq4(f: FunctionExpr, iv: Interval, m: float, tol: float = 1e-10) -> IntegralVsClosed:
    """Integral mean of f vs the smaller of the two endpoint logarithmic means."""
    return IntegralVsClosed(lhs=mean_integral(f, iv, tol), rhs=eq4_rhs(f, iv, m))


def bound_eq11_pair(f: FunctionExpr, iv: Interval, m: float, tol: float = 1e-10) -> ValueVsIntegral:
    """Midpoint value of f vs the mean of sqrt(f(x) * f((a+b-x)/m)**m)."""
    _check_m(m)
    lhs = f.evaluate(arithmetic_mean(iv.a, iv.b))
    rhs = mean_integral(mixed_geometric_integrand(f, iv.a + iv.b, m), iv, tol)
    return ValueVsIntegral(lhs=lhs, rhs=rhs)


def bound_eq22_pair(
    f: FunctionExpr,
    iv: Interval,
    m: float,
    tol: float = 1e-10,
    variant: str = "corrected",
) -> IntegralVsClosed:
    """Geometric-mean integral vs a logarithmic mean of endpoint products."""
    rhs = eq22_rhs(f, iv, m, variant)
    lhs = mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, tol)
    return IntegralVsClosed(lhs=lhs, rhs=rhs)


def bound_eq31(f: FunctionExpr, iv: Interval, params: ClassParams, tol: float = 1e-10) -> BranchedBound:
    """Integral mean of f vs the smaller applicable endpoint-ratio branch."""
    rhs, branches = eq31_branches(f, iv, params)
    return BranchedBound(lhs=mean_integral(f, iv, tol), rhs=rhs, branches=branches)


def bound_eq42(
    f: FunctionExpr,
    iv: Interval,
    params: ClassParams,
    tol: float = 1e-10,
    variant: str = "corrected",
) -> IntegralVsClosed:
    """Geometric-mean integral vs the scaled exponential-mean kernel of theta."""
    rhs = eq42_rhs(f, iv, params, variant)
    lhs = mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, tol)
    return IntegralVsClosed(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# refinement chains


def chain_dr1(f: FunctionExpr, iv: Interval, tol: float = 1e-10) -> ChainValues:
    """Three-term chain: midpoint value, geometric-mean integral, endpoint geometric mean."""
    gint = mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, tol)
    return ChainValues(
        terms=(
            ChainTerm("midpoint_value", f.evaluate(arithmetic_mean(iv.a, iv.b))),
            ChainTerm("geometric_mean_integral", gint.value, gint.err_est),
            ChainTerm("endpoint_geometric_mean", geometric_mean(f.evaluate(iv.a), f.evaluate(iv.b))),
        )
    )


def chain_dr2(f: FunctionExpr, iv: Interval, tol: float = 1e-10) -> ChainValues:
    """Six-term chain from the midpoint value up to the endpoint arithmetic mean.

    Terms, in order: f((a+b)/2); exp of the mean of ln f; the mean of
    sqrt(f(x) f(a+b-x)); the mean of f; L(f(a), f(b)); (f(a)+f(b))/2.
    The error of the exponentiated log-mean term is propagated through the
    exponential (scaled by the value itself).
    """
    fa = f.evaluate(iv.a)
    fb = f.evaluate(iv.b)
    log_mean = mean_integral(log_integrand(f), iv, tol)
    exp_log = math.exp(log_mean.value)
    gint = mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, tol)
    fint = mean_integral(f, iv, tol)
    return ChainValues(
        terms=(
            ChainTerm("midpoint_value", f.evaluate(arithmetic_mean(iv.a, iv.b))),
            ChainTerm("exp_mean_log", exp_log, exp_log * log_mean.err_est),
            ChainTerm("geometric_mean_integral", gint.value, gint.err_est),
            ChainTerm("mean_integral", fint.value, fint.err_est),
            ChainTerm("endpoint_logarithmic_mean", logarithmic_mean(fa, fb)),
            ChainTerm("endpoint_arithmetic_mean", arithmetic_mean(fa, fb)),
        )
    )
