"""Bivariate means: arithmetic, geometric, and logarithmic.

These are the closed-form building blocks of the inequality bounds. All
three are symmetric and homogeneous of degree one; the logarithmic mean
sits between the geometric and arithmetic means.
"""
from __future__ import annotations

import math

__all__ = ["arithmetic_mean", "geometric_mean", "logarithmic_mean", "NEAR_EQUAL_REL"]

# Relative gap below which the logarithmic mean is replaced by the
# arithmetic mean. The substitution error is O(((p-q)/p)^2) <= 1e-16,
# below double-precision rounding noise.
NEAR_EQUAL_REL = 1e-8


def _require_nonneg_finite(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
        raise ValueError(f"mean arguments must be nonnegative finite reals, got ({a!r}, {b!r})")


def _half_sum(p: float, q: float) -> float:
    """(p + q)/2 of nonnegative finite p, q; the halves are added only where the sum overflows.

    Halving is exact for values that large, so the result is finite and
    every result whose sum is finite keeps its bits.
    """
    total = p + q
    return 0.5 * total if total < math.inf else 0.5 * p + 0.5 * q


def arithmetic_mean(a: float, b: float) -> float:
    """Return (a + b)/2 for nonnegative finite inputs, without overflowing."""
    _require_nonneg_finite(a, b)
    return _half_sum(a, b)


def geometric_mean(a: float, b: float) -> float:
    """Return sqrt(a*b), computed without overflowing on large products.

    For positive inputs the product is formed in log space, so values like
    geometric_mean(1e300, 1e300) stay finite. Returns 0.0 when either
    input is zero.
    """
    _require_nonneg_finite(a, b)
    if a == 0.0 or b == 0.0:
        return 0.0
    return math.exp(0.5 * (math.log(a) + math.log(b)))


def logarithmic_mean(p: float, q: float) -> float:
    """Return the logarithmic mean (p - q)/(ln p - ln q) of positive p, q.

    Branches:
      * |p - q| <= NEAR_EQUAL_REL * max(p, q): returns (p + q)/2, which
        agrees with the true value to O(1e-16) relative.
      * max/min <= 2: evaluates the identical expression via
        2*atanh((p - q)/(p + q)); the subtraction p - q is exact there
        (Sterbenz), avoiding the catastrophic cancellation that
        log(p) - log(q) suffers just above the near-equal cutoff.
      * otherwise: the direct formula.

    Arguments are ordered before computing, so the result is bitwise
    symmetric in (p, q). Where p + q overflows, both branches that use it
    halve each argument first, so every finite pair has a finite mean.

    Raises:
        ValueError: if either argument is not a positive finite real.
    """
    lo, hi = (p, q) if p <= q else (q, p)
    if not (lo > 0.0 and math.isfinite(hi)):
        raise ValueError(f"logarithmic_mean arguments must be positive finite reals, got ({p!r}, {q!r})")
    diff = hi - lo
    if diff <= NEAR_EQUAL_REL * hi:
        return _half_sum(lo, hi)
    if hi <= 2.0 * lo:
        total = hi + lo
        ratio = diff / total if total < math.inf else (0.5 * diff) / _half_sum(hi, lo)
        return diff / (2.0 * math.atanh(ratio))
    return diff / (math.log(hi) - math.log(lo))
