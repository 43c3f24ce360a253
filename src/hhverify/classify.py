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
as one stream, so enlarging grid_n extends the same stream instead of
reshuffling it. Consequently a fail verdict never flips back to pass under
refinement.

The grid part is factored: its x and y take only the grid_n axis values,
so f, ln f and t**alpha are evaluated there once, and only f(z) at every
grid point. Both parts are then evaluated in chunks of at most CHUNK
triples (whole x-planes of the grid; consecutive draws of the random
stream), which are the same samples in the same order as one block, with
the same verdict, witness and error. Peak memory is therefore bounded by
the chunk size, not by grid_n: tracemalloc puts a check at about 20 MB for
grid_n 65 and 97 alike (4.6 MB at grid_n 33, one chunk per part), where
one block took 61.5 MB and 204 MB. Time still grows as grid_n**3, so
grid_n is capped at MAX_GRID_N = 257, the largest 2k+1 refinement level
whose x-plane (66,049 triples) fits one chunk: 2 * 257**3 is about 34
million samples, about a second of work.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from .funcspec import FunctionExpr

if TYPE_CHECKING:  # numpy is imported by the first check, not with the package
    import numpy as np

    # Maps sample indices within a chunk to their x, y and t arrays.
    _Coords = Callable[[np.ndarray], tuple[np.ndarray, ...]]

__all__ = [
    "DEFAULT_SEED",
    "MAX_GRID_N",
    "ClassParams",
    "Violation",
    "ClassificationReport",
    "SampleEvaluationError",
    "check_alpha_m_log_convex",
]

DEFAULT_SEED = 0x5EED
# Triples evaluated at once; it bounds the memory of a check.
CHUNK = 1 << 17
# The largest grid_n: the 2k+1 level whose x-plane of grid_n**2 triples fits one chunk.
MAX_GRID_N = 257


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


def _triple(coords: _Coords, i: int) -> tuple[float, float, float]:
    import numpy as np

    x, y, t = coords(np.array([i]))
    return float(x[0]), float(y[0]), float(t[0])


def _first_bad(values: np.ndarray, pts: np.ndarray) -> Optional[tuple[int, str]]:
    """Index and message of the first value that is not finite and positive, or None."""
    import numpy as np

    bad = ~np.isfinite(values) | (values <= 0.0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, f"f({float(pts[i])!r}) = {float(values[i])!r} is not strictly positive"


def _chunk_worst(
    lhs: np.ndarray, rhs: np.ndarray, tol_rel: float, coords: _Coords
) -> Optional[Violation]:
    """The chunk's violation of largest deficit, ties broken by the least (x, y, t)."""
    import numpy as np

    violating = lhs > rhs * (1.0 + tol_rel)
    if not violating.any():
        return None
    deficit = lhs - rhs
    worst = np.max(deficit[violating])
    ties = np.flatnonzero(violating & (deficit == worst))
    x, y, t = coords(ties)
    i = int(np.lexsort((t, y, x))[0])
    j = int(ties[i])
    return Violation(
        x=float(x[i]),
        y=float(y[i]),
        t=float(t[i]),
        lhs=float(lhs[j]),
        rhs=float(rhs[j]),
        deficit=float(deficit[j]),
    )


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
        ValueError: domain_upper is not a positive finite real, grid_n is
            outside [2, MAX_GRID_N], or tol_rel is not a nonnegative real.
        SampleEvaluationError: ``f`` produced a non-positive or non-finite
            value at some sampled point; the offending triple is attached.
            It is the first bad f(z) in sampling order, else the first bad
            f(x), else the first bad f(y).
    """
    import numpy as np

    m, alpha = params.m, params.alpha
    if not (math.isfinite(domain_upper) and domain_upper > 0.0):
        raise ValueError(f"domain_upper must be a positive finite real, got {domain_upper!r}")
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [2, {MAX_GRID_N}], got {grid_n!r}")
    if not (math.isfinite(tol_rel) and tol_rel >= 0.0):
        raise ValueError(f"tol_rel must be a nonnegative real, got {tol_rel!r}")

    n = grid_n
    # i/(n-1) is the exactly-rounded rational, so the size 2k+1 grid
    # contains the size k+1 grid bitwise.
    base = np.arange(n, dtype=float) / (n - 1)
    axis = domain_upper * base
    # The first bad f(x) and the first bad f(y), as (triple, message). A
    # bad f(z) raises at once: chunks come in sampling order and f(z) is
    # checked first. A bad f(x) or f(y) waits for the f(z) of later chunks.
    offenders: dict[str, tuple[tuple[float, float, float], str]] = {}

    def grid_chunks() -> Iterator[tuple[np.ndarray, _Coords, Optional[np.ndarray]]]:
        # Over the grid, x and y range over ``axis`` and t over ``base``:
        # f, ln f and t**alpha are taken there once and broadcast through
        # the n**2 partial products of z and of ln rhs, in the order of
        # operations of the random chunks. Only f(z) needs all n**3 points.
        f_axis = f.evaluate_array(axis)
        hit = _first_bad(f_axis, axis)
        if hit is not None:  # the first samples with x = axis[i] and y = axis[i]
            i, message = hit
            offenders["x"] = ((float(axis[i]), 0.0, 0.0), message)
            offenders["y"] = ((0.0, float(axis[i]), 0.0), message)
        t_alpha = base if alpha == 1.0 else base**alpha
        tx = base * axis[:, None]
        my = m * (1.0 - base) * axis[:, None]
        with np.errstate(all="ignore"):  # a bad f(axis) is already noted
            ln_f = np.log(f_axis)[:, None]
            lx = t_alpha * ln_f
            ly = m * (1.0 - t_alpha) * ln_f
        planes = max(1, CHUNK // (n * n))
        for i0 in range(0, n, planes):
            i1 = min(n, i0 + planes)

            def coords(idx: np.ndarray, i0: int = i0, p: int = i1 - i0) -> tuple[np.ndarray, ...]:
                i, j, k = np.unravel_index(idx, (p, n, n))
                return axis[i0 + i], axis[j], base[k]

            z = (tx[i0:i1, None, :] + my[None, :, :]).ravel()
            rhs = None
            if not offenders:
                with np.errstate(over="ignore"):
                    rhs = np.exp((lx[i0:i1, None, :] + ly[None, :, :]).ravel())
            yield z, coords, rhs

    def random_chunks() -> Iterator[tuple[np.ndarray, _Coords, Optional[np.ndarray]]]:
        # Consecutive draws continue one stream: the chunks together equal
        # a single rng.random((n**3, 3)) draw, bit for bit.
        rng = np.random.Generator(np.random.PCG64(seed))
        for start in range(0, n**3, CHUNK):
            u = rng.random((min(CHUNK, n**3 - start), 3))
            x = domain_upper * u[:, 0]
            y = domain_upper * u[:, 1]
            t = u[:, 2].copy()  # contiguous: strided ufunc loops may round differently

            def coords(idx: np.ndarray, x=x, y=y, t=t) -> tuple[np.ndarray, ...]:
                return x[idx], y[idx], t[idx]

            z = t * x + m * (1.0 - t) * y
            fx = f.evaluate_array(x)
            fy = f.evaluate_array(y)
            for key, hit in (("x", _first_bad(fx, x)), ("y", _first_bad(fy, y))):
                if hit is not None and key not in offenders:
                    offenders[key] = (_triple(coords, hit[0]), hit[1])
            rhs = None
            if not offenders:
                t_alpha = t if alpha == 1.0 else t**alpha
                # rhs in log space; t_alpha=0 and t_alpha=1 then land on
                # f(y)**m and (up to one rounding) f(x) with no 0**0 ambiguity.
                with np.errstate(over="ignore"):
                    rhs = np.exp(t_alpha * np.log(fx) + m * (1.0 - t_alpha) * np.log(fy))
            yield z, coords, rhs

    witnesses: list[Violation] = []
    for z, coords, rhs in itertools.chain(grid_chunks(), random_chunks()):
        lhs = f.evaluate_array(z)
        hit = _first_bad(lhs, z)
        if hit is not None:
            raise SampleEvaluationError(_triple(coords, hit[0]), hit[1])
        if rhs is not None:
            witness = _chunk_worst(lhs, rhs, tol_rel, coords)
            if witness is not None:
                witnesses.append(witness)
    for key in ("x", "y"):
        if key in offenders:
            raise SampleEvaluationError(*offenders[key])

    samples = 2 * n**3
    if not witnesses:
        return ClassificationReport(verdict="pass", samples=samples)
    worst = min(witnesses, key=lambda w: (-w.deficit, w.x, w.y, w.t))
    return ClassificationReport(verdict="fail", samples=samples, worst_violation=worst)
