"""Adaptive Simpson quadrature with explicit error accounting.

The single integration engine of the package. Deterministic: the same
integrand, interval, and tolerance always produce the same bits. Failure
is soft where possible (a non-converged result still carries the best
value with an inflated error estimate) and loud where it has to be (an
integrand that raises gets re-raised with the offending abscissa).

There is one Simpson recursion, written as source and compiled by
``funcspec.generate``. The integrands of ``bounds`` are short bodies
spliced into it once, at import; each integral compiles nothing and
costs one call of a cached factory, which inlines f's body where the
recursion evaluates the integrand, so a point costs no Python call. A
plain callable runs the same recursion with a call at those points.
"""
from __future__ import annotations

import math
import sys
import textwrap
from dataclasses import dataclass
from math import isfinite
from typing import Callable, NamedTuple

from .funcspec import FunctionExpr, Var, generate

__all__ = ["Interval", "QuadResult", "IntegrandError", "check_tol", "integrate", "mean_integral"]

MIN_TOL = 1e-13
MAX_DEPTH = 60


class IntegrandError(Exception):
    """The integrand failed to produce a finite value inside the interval."""

    def __init__(self, abscissa: float, cause: Exception | str):
        super().__init__(f"integrand failed at x={abscissa!r}: {cause}")
        self.abscissa = abscissa
        self.cause = cause if isinstance(cause, Exception) else None


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with 0 <= a < b (the function classes live on [0, b])."""

    a: float
    b: float

    def __post_init__(self) -> None:
        ok = math.isfinite(self.a) and math.isfinite(self.b) and 0.0 <= self.a < self.b
        if not ok:
            raise ValueError(f"interval must satisfy 0 <= a < b, got [{self.a!r}, {self.b!r}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class QuadResult:
    """Integral value plus the accumulated Richardson-style error estimate.

    ``converged`` is False when some subinterval hit the depth limit before
    meeting its local tolerance; the value is still the best available and
    ``err_est`` is inflated accordingly.
    """

    value: float
    err_est: float
    evals: int
    converged: bool = True


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is a finite real >= ``MIN_TOL``."""
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be a finite real >= {MIN_TOL}, got {tol!r}")


def _checked(g: Callable[[float], float], x: float) -> float:
    """``g(x)``; raises IntegrandError if g raises or returns a non-finite value."""
    try:
        y = g(x)
    except IntegrandError:
        raise
    except Exception as exc:
        raise IntegrandError(x, exc) from exc
    if not math.isfinite(y):
        raise IntegrandError(x, f"non-finite integrand value {y!r}")
    return y


# The one Simpson recursion, as source for funcspec.generate. ``{fast}``
# stands for an integrand body, which computes y from x; ``{checked}`` for
# the same body with every ``f(...)`` call replaced by ``evaluate(...)``.
# generate inlines f's body at each remaining ``NAME = f(ARG)`` line, so
# at lm and rm the recursion evaluates the integrand without a call. Where
# that fast path raises or is not finite, the checked ``point`` evaluates
# both points again, in order, and ``checked`` raises for the first one
# that fails. ``at`` is the integrand at one point, fast path first.
_RECURSION = """\
def point(x):
{checked}
    return y

def at(x):
    try:
{fast}
    except Exception:
        y = nan
    return y if isfinite(y) else point(x)

def refine(a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    if not (a < lm < mid < rm < b):
        # Interval narrower than float spacing: cannot refine further.
        return whole, abs(whole), False, 0
    try:
        x = lm
{fast}
        flm = y
        x = rm
{fast}
        frm = y
    except Exception:
        flm = frm = nan
    if not (isfinite(flm) and isfinite(frm)):
        flm = checked(point, lm)
        frm = checked(point, rm)
    left = ((mid - a) / 6.0) * (fa + 4.0 * flm + fm)
    right = ((b - mid) / 6.0) * (fm + 4.0 * frm + fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, True, 2
    if not isfinite(delta):
        # Finite values whose Simpson sum overflows leave the panel's error
        # unmeasurable; where the values stay that large, every panel
        # below would refine to MAX_DEPTH, so the panel fails here.
        raise IntegrandError(mid, f"Simpson sum on [{{a!r}}, {{b!r}}] is not finite")
    if depth <= 0:
        return left + right + delta / 15.0, abs(delta), False, 2
    # Each half inherits half the budget: tolerance splits proportionally
    # to subinterval length, giving the usual global absolute guarantee.
    lv, le, lc, ln = refine(a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rv, re, rc, rn = refine(mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re, lc and rc, 2 + ln + rn

g = at, refine
"""


def _kernel(body: str) -> str:
    """The recursion's source with ``body``, which sets y from x, as its integrand."""
    fast = body.rstrip()
    checked = fast.replace("= f(", "= evaluate(")
    return _RECURSION.format(fast=textwrap.indent(fast, " " * 8), checked=textwrap.indent(checked, " " * 4))


class _Integrand(NamedTuple):
    """An integrand compiled with its Simpson recursion; calling it evaluates one point."""

    at: Callable[[float], float]
    refine: Callable[..., tuple[float, float, bool, int]]

    def __call__(self, x: float) -> float:
        return self.at(x)


_NAMES = {"checked": _checked, "IntegrandError": IntegrandError, "isfinite": isfinite}


def _compile(f: FunctionExpr, kernel: str, **bound) -> _Integrand:
    """The integrand ``kernel`` (from ``_kernel``) with f's body inlined; ``bound`` names its parameters."""
    return _Integrand(*generate(f, kernel, evaluate=f.evaluate, **_NAMES, **bound))


# A plain callable runs the same recursion, calling it at lm and rm. Its
# source has no f to inline; the expression x only satisfies generate.
_PLAIN = _kernel("y = integrand(x)")
_X = FunctionExpr(Var())


def integrate(g: Callable[[float], float], iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Integrate ``g`` over ``iv`` to absolute tolerance ``tol``.

    Adaptive Simpson with the classic acceptance test
    |S_fine - S_coarse| <= 15 * tol_local and Richardson extrapolation of
    accepted panels. Recursion depth is capped at 60; panels that hit the
    cap are reported through ``converged=False`` with err_est inflated to
    the raw |S_fine - S_coarse| instead of its /15 estimate.

    Args:
        g: real-valued integrand, a deterministic function of x; it may
            raise for out-of-domain points, in which case the failure is
            re-raised as IntegrandError carrying the abscissa. The
            integrands of ``bounds`` bring their own compiled recursion.
        iv: integration interval.
        tol: absolute tolerance, at least 1e-13.

    Returns:
        QuadResult with value, accumulated error estimate, and the exact
        number of integrand evaluations.

    Raises:
        ValueError: if tol is below 1e-13 or not finite.
        IntegrandError: if g raises or returns a non-finite value, or if
            the Simpson sum of a panel that must be refined overflows.
    """
    check_tol(tol)
    if isinstance(g, _Integrand):
        at, refine = g
    else:
        at, refine = g, generate(_X, _PLAIN, integrand=g, **_NAMES)[1]
    a, b = iv.a, iv.b
    fa = _checked(at, a)
    fm = _checked(at, 0.5 * (a + b))
    fb = _checked(at, b)
    whole = ((b - a) / 6.0) * (fa + 4.0 * fm + fb)
    if not isfinite(whole):
        raise IntegrandError(0.5 * (a + b), f"Simpson sum on [{a!r}, {b!r}] is not finite")
    value, err, converged, evals = refine(a, b, fa, fm, fb, whole, tol, MAX_DEPTH)
    return QuadResult(value, err, 3 + evals, converged)


def mean_integral(f, iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Return the average of ``f`` over ``iv``: (1/(b-a)) * integral.

    ``f`` may be a positive-function specification (anything with an
    ``evaluate(x)`` method) or a plain callable. Value and error estimate
    are both scaled by 1/(b-a).

    Raises:
        IntegrandError: if the interval is too narrow to average over,
            before ``f`` is evaluated, or for the reasons ``integrate`` gives.
            Too narrow means that (b-a)/12 is subnormal (b - a below about
            2.7e-307): Simpson's rule weighs a panel of width h by h/6, and
            the first refinement halves the interval, so its weight
            (b-a)/12 would lose bits that neither the value nor ``err_est``
            accounts for. 1/(b-a) is then finite as well.
    """
    if iv.width / 12.0 < sys.float_info.min:
        raise IntegrandError(
            iv.a, f"interval width {iv.width!r} is too narrow to average over: the panel weight (b-a)/12 is subnormal"
        )
    s = 1.0 / iv.width
    g = f.evaluate if hasattr(f, "evaluate") else f
    r = integrate(g, iv, tol)
    return QuadResult(r.value * s, r.err_est * s, r.evals, r.converged)
