"""Adaptive Simpson quadrature with explicit error accounting.

The single integration engine of the package. Deterministic: the same
integrand, interval, and tolerance always produce the same bits. Failure
is soft where possible (a non-converged result still carries the best
value with an inflated error estimate) and loud where it has to be (an
integrand that raises gets re-raised with the offending abscissa).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import Callable

__all__ = ["Interval", "QuadResult", "IntegrandError", "integrate", "mean_integral"]

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


def _simpson(h: float, fa: float, fm: float, fb: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _adaptive(
    g: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
) -> tuple[float, float, bool, int]:
    """Value, error estimate, convergence and integrand evaluations on [a, b]."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    if not (a < lm < m < rm < b):
        # Interval narrower than float spacing: cannot refine further.
        return whole, abs(whole), False, 0
    # Calling g directly keeps the hot path to one call per point. On a
    # failure the checked calls evaluate the same points again, in order,
    # and raise for the first one that fails.
    try:
        flm = g(lm)
        frm = g(rm)
    except Exception:
        flm = frm = math.nan
    if not (isfinite(flm) and isfinite(frm)):
        flm = _checked(g, lm)
        frm = _checked(g, rm)
    left = _simpson(m - a, fa, flm, fm)
    right = _simpson(b - m, fm, frm, fb)
    delta = (left + right) - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, True, 2
    if not isfinite(delta):
        # Finite values whose Simpson sum overflows leave the panel's error
        # unmeasurable; where the values stay that large, every panel
        # below would refine to MAX_DEPTH, so the panel fails here.
        raise IntegrandError(m, f"Simpson sum on [{a!r}, {b!r}] is not finite")
    if depth <= 0:
        return left + right + delta / 15.0, abs(delta), False, 2
    # Each half inherits half the budget: tolerance splits proportionally
    # to subinterval length, giving the usual global absolute guarantee.
    lv, le, lc, ln = _adaptive(g, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rv, re, rc, rn = _adaptive(g, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re, lc and rc, 2 + ln + rn


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
            re-raised as IntegrandError carrying the abscissa.
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
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tol must be a finite real >= {MIN_TOL}, got {tol!r}")
    a, b = iv.a, iv.b
    fa = _checked(g, a)
    fm = _checked(g, 0.5 * (a + b))
    fb = _checked(g, b)
    whole = _simpson(b - a, fa, fm, fb)
    if not isfinite(whole):
        raise IntegrandError(0.5 * (a + b), f"Simpson sum on [{a!r}, {b!r}] is not finite")
    value, err, converged, evals = _adaptive(g, a, b, fa, fm, fb, whole, tol, MAX_DEPTH)
    return QuadResult(value, err, 3 + evals, converged)


def mean_integral(f, iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Return the average of ``f`` over ``iv``: (1/(b-a)) * integral.

    ``f`` may be a positive-function specification (anything with an
    ``evaluate(x)`` method) or a plain callable. Value and error estimate
    are both scaled by 1/(b-a).
    """
    g = f.evaluate if hasattr(f, "evaluate") else f
    r = integrate(g, iv, tol)
    s = 1.0 / iv.width
    return QuadResult(r.value * s, r.err_est * s, r.evals, r.converged)
