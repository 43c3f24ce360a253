"""Bound sides and refinement chains for the integral inequalities.

Every theorem handled by this package compares an integral mean of a
positive function f against closed forms built from endpoint values, the
scaled endpoint values f(a/m)**m and f(b/m)**m, and averages of the
exponential family t -> r**(t**alpha). Nothing here evaluates f but
``Endpoints.of``: the closed forms read one ``Endpoints`` record, built once
per interval and m, and the two refinement chains are plain functions of the
values they compare, the midpoint value, the integral means and the record
at m = 1, which the caller fetches. This module neither builds integrands
nor integrates; ``quadrature`` does both. All products and powers of
function values are computed in log space so that nothing overflows before
it has to. Inapplicable sides (endpoint ratios above one, where the closed
form stops being an upper bound) are reported as data, never raised.

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
from typing import Optional

from .classify import ClassParams
from .funcspec import FunctionExpr
from .means import arithmetic_mean, geometric_mean, logarithmic_mean
from .quadrature import Interval, QuadResult

__all__ = [
    "RATIO_ONE_REL",
    "RATIO_ABOVE_ONE",
    "VARIANTS",
    "BoundSide",
    "ClosedFormUnderflow",
    "Endpoints",
    "ChainTerm",
    "exp_mean_factor",
    "check_variant",
]

# Ratios within this relative distance of 1 take the exact limit value.
RATIO_ONE_REL = 1e-14

RATIO_ABOVE_ONE = "ratio_above_one"
VARIANTS = ("printed", "corrected")


class ClosedFormUnderflow(ArithmeticError):
    """A quantity that a closed form needs positive rounded to 0.0."""


def _exp_positive(u: float, name: str) -> float:
    """exp(u), raising ClosedFormUnderflow where it rounds to 0.0; ``name`` says what it is."""
    value = math.exp(u)
    if value == 0.0:
        raise ClosedFormUnderflow(f"{name} = exp({u!r}) rounds to 0.0")
    return value


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
class ChainTerm:
    """One labeled term of a refinement chain; each term should not exceed the next."""

    label: str
    value: float
    err_est: float = 0.0


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
    ClassParams(1.0, alpha)  # range-check alpha
    if abs(r - 1.0) <= RATIO_ONE_REL * max(1.0, r):
        return BoundSide(value=1.0)
    if r > 1.0:
        return BoundSide.inapplicable(RATIO_ABOVE_ONE)
    u = alpha * math.log(r)
    return BoundSide(value=math.expm1(u) / u)


@dataclass(frozen=True)
class Endpoints:
    """f(a), f(b) and the logs la, lb, lam, lbm of f at a, b, a/m, b/m: all the closed forms read.

    phi = f(a)/f(b/m)**m, ell = f(b)/f(a/m)**m and theta = phi*ell are formed
    in log space, theta from the sum of the log ratios, so it agrees with
    phi*ell to rounding even when the factors are extreme. A ratio that
    rounds to 0.0 raises ClosedFormUnderflow.
    """

    m: float
    fa: float
    fb: float
    la: float
    lb: float
    lam: float
    lbm: float

    @staticmethod
    def of(f: FunctionExpr, iv: Interval, m: float) -> "Endpoints":
        """Evaluate f at a, b, a/m and b/m, in this order, so the first bad abscissa raises."""
        ClassParams(m)  # range-check m
        fa = f.evaluate(iv.a)
        fb = f.evaluate(iv.b)
        lam = math.log(f.evaluate(iv.a / m))
        lbm = math.log(f.evaluate(iv.b / m))
        return Endpoints(m, fa, fb, math.log(fa), math.log(fb), lam, lbm)

    @property
    def phi(self) -> float:
        return _exp_positive(self.la - self.m * self.lbm, "phi")

    @property
    def ell(self) -> float:
        return _exp_positive(self.lb - self.m * self.lam, "ell")

    @property
    def theta(self) -> float:
        return _exp_positive((self.la - self.m * self.lbm) + (self.lb - self.m * self.lam), "theta")


def check_variant(variant: str) -> None:
    """Raise ValueError unless ``variant`` is one of VARIANTS."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def eq4_rhs(ends: Endpoints) -> BoundSide:
    """min of L(f(a), f(b/m)**m) and L(f(b), f(a/m)**m)."""
    fam_m = math.exp(ends.m * ends.lam)
    fbm_m = math.exp(ends.m * ends.lbm)
    return BoundSide(value=min(logarithmic_mean(ends.fa, fbm_m), logarithmic_mean(ends.fb, fam_m)))


def eq22_rhs(ends: Endpoints, variant: str = "corrected") -> BoundSide:
    check_variant(variant)
    if variant == "printed":
        # products of two values of f can underflow; the square roots below cannot
        p = _exp_positive(ends.la + ends.lb, "f(a)*f(b)")
        q = _exp_positive(ends.m * (ends.lam + ends.lbm), "(f(a/m)*f(b/m))**m")
    else:
        p = math.exp(0.5 * (ends.la + ends.lb))
        q = math.exp(0.5 * ends.m * (ends.lam + ends.lbm))
    return BoundSide(value=logarithmic_mean(p, q))


def _scaled(side: BoundSide, coefficient: float) -> BoundSide:
    if not side.applicable:
        return side
    return BoundSide(value=coefficient * side.value, err_est=coefficient * side.err_est)


def eq31_branches(ends: Endpoints, alpha: float) -> tuple[BoundSide, dict[str, BoundSide]]:
    """rhs and both labeled branches of the endpoint-ratio mean bound.

    The "phi" branch scales the kernel at phi by f(b/m)**m, the "ell"
    branch scales the kernel at ell by f(a/m)**m; the rhs is the minimum
    of the applicable branches, or inapplicable when both ratios exceed 1.
    """
    branches = {
        "phi": _scaled(exp_mean_factor(ends.phi, alpha), math.exp(ends.m * ends.lbm)),
        "ell": _scaled(exp_mean_factor(ends.ell, alpha), math.exp(ends.m * ends.lam)),
    }
    usable = [side.value for side in branches.values() if side.applicable]
    rhs = BoundSide(value=min(usable)) if usable else BoundSide.inapplicable(RATIO_ABOVE_ONE)
    return rhs, branches


def eq42_rhs(ends: Endpoints, alpha: float, variant: str = "corrected") -> BoundSide:
    check_variant(variant)
    if variant == "printed":
        coefficient = math.exp(ends.m * (ends.lam + ends.lbm))
        ratio = ends.theta
    else:
        coefficient = math.exp(0.5 * ends.m * (ends.lam + ends.lbm))
        ratio = math.sqrt(ends.theta)
    return _scaled(exp_mean_factor(ratio, alpha), coefficient)


# ---------------------------------------------------------------------------
# refinement chains


def chain_dr1(gint: QuadResult, mid: float, ends: Endpoints) -> tuple[ChainTerm, ...]:
    """Three-term chain: f((a+b)/2) = ``mid``, the mean ``gint`` of sqrt(f(x) f(a+b-x)), sqrt(f(a) f(b))."""
    return (
        ChainTerm("midpoint_value", mid),
        ChainTerm("geometric_mean_integral", gint.value, gint.err_est),
        ChainTerm("endpoint_geometric_mean", geometric_mean(ends.fa, ends.fb)),
    )


def chain_dr2(
    ends: Endpoints, log_mean: QuadResult, gint: QuadResult, fint: QuadResult, mid: float
) -> tuple[ChainTerm, ...]:
    """Six-term chain from the midpoint value up to the endpoint arithmetic mean.

    Terms, in order: f((a+b)/2) = ``mid``; exp of the mean ``log_mean`` of
    ln f; the mean ``gint`` of sqrt(f(x) f(a+b-x)); the mean ``fint`` of f;
    L(f(a), f(b)); (f(a)+f(b))/2, with f(a) and f(b) read from ``ends``.
    The error of the exponentiated log-mean term is propagated through the
    exponential (scaled by the value itself).
    """
    exp_log = math.exp(log_mean.value)
    return (
        ChainTerm("midpoint_value", mid),
        ChainTerm("exp_mean_log", exp_log, exp_log * log_mean.err_est),
        ChainTerm("geometric_mean_integral", gint.value, gint.err_est),
        ChainTerm("mean_integral", fint.value, fint.err_est),
        ChainTerm("endpoint_logarithmic_mean", logarithmic_mean(ends.fa, ends.fb)),
        ChainTerm("endpoint_arithmetic_mean", arithmetic_mean(ends.fa, ends.fb)),
    )
