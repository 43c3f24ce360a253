"""Membership checks for the two logarithmic convexity classes.

A function f on [0, B] is checked against the defining inequality

    f(t*x + m*(1-t)*y) <= f(x)**(t**alpha) * f(y)**(m*(1 - t**alpha))

for all sampled triples (x, y, t) in [0, B]^2 x [0, 1]; alpha = 1 gives the
plain m-logarithmic class. A sampled "pass" is a certificate, not a
proof: membership was verified only at the sampled triples. A "fail" is
sound: the reported worst violation re-verifies by direct evaluation.

The inequality is affine in ln f, so for f = c*exp(k*x) its log-deficit,
ln lhs - ln rhs, has the closed form

    (1 - m)*(1 - t**alpha)*ln c + k*(t - t**alpha)*(x - m*y).

Its worst case over (x, y) does not depend on t, so its maximum over
[0, B]^2 x [0, 1] is one over t alone, with a closed-form peak.
exact_membership decides the class of every const, exp_linear and
exp_affine member from it, with no sampling, so grid_n and seed do not
matter there; check_alphas and check_alpha_m_log_convex always sample.

Sampling is deterministic. The grid part uses grid_n uniform points per
axis (endpoints included, grids of size 2k+1 contain the size k+1 grid);
the random part draws grid_n**3 extra triples from a fixed-seed generator
as one stream, so enlarging grid_n extends the same stream instead of
reshuffling it. Consequently a fail verdict never flips back to pass under
refinement.

One pass of (f, domain, m) serves every alpha: everything but the
right-hand side is independent of alpha (the samples, f and ln f at them,
and the first value that is not finite and positive), so check_alphas
judges each alpha on the same samples, with the same witness and error as
a check of that class alone. Only t**alpha, the right-hand side and the
search for the worst violation run once per alpha.

The grid part is factored: its x and y take only the grid_n axis values,
so f and ln f are evaluated there once, t**alpha only at the grid_n
t-values, and only f(z) at every grid point. Both parts are then
evaluated in chunks of at most CHUNK triples (on the grid, blocks of whole
t-rows: several whole x-planes, or a run of y-rows in one x-plane, whose z
and ln rhs are broadcast sums of per-axis products; consecutive draws of
the random stream), which are the same samples in the same order as one
block, with the same verdict, witness and error. Only the worst violation
so far of each alpha is kept, and a chunk none of whose deficits reaches
it is passed over before its violations are located, so peak memory is
bounded by the chunk size, not by grid_n. A chunk's float64 temporaries
are at most 32 KiB each: they stay in cache and below the allocator's mmap
threshold, so a check reuses freed memory instead of mapping fresh pages.
tracemalloc puts a check at 0.70 to 0.76 MB for grid_n 65, 97 and 257
alike, with one alpha or three, where one block took 61.5 MB and 204 MB at
65 and 97. Time still grows as grid_n**3, so grid_n is capped at
MAX_GRID_N = 257, a 2k+1 refinement level: 2 * 257**3 is about 34
million samples, about a second of work.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .funcspec import Binary, Const, FamilyError, FamilySpec, FunctionExpr, Node, Unary, Var, family_instantiate

if TYPE_CHECKING:  # numpy is imported by the first check, not with the package
    import numpy as np

    # Maps sample indices within a chunk to their x, y and t arrays.
    _Coords = Callable[[np.ndarray], tuple[np.ndarray, ...]]
    # A chunk's ln f(x), ln f(y), t and m*(1-t), which ln rhs combines for
    # each alpha; on the grid they broadcast to the chunk's block.
    _Logs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

__all__ = [
    "DEFAULT_SEED",
    "MAX_GRID_N",
    "ClassParams",
    "Violation",
    "ClassificationReport",
    "SampleEvaluationError",
    "check_alpha_m_log_convex",
    "check_alphas",
    "check_sampling",
    "exact_membership",
]

DEFAULT_SEED = 0x5EED
# Triples evaluated at once (at least one grid row); it bounds the memory of a check.
CHUNK = 1 << 12
# The largest grid_n, a 2k+1 level: it caps the time of a check, about a second.
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

    if values.min() > 0.0 and values.max() < np.inf:  # a nan fails the min
        return None
    bad = ~np.isfinite(values) | (values <= 0.0)
    i = int(np.argmax(bad))
    return i, f"f({float(pts[i])!r}) = {float(values[i])!r} is not strictly positive"


def _chunk_worst(
    lhs: np.ndarray, rhs: np.ndarray, tol_rel: float, coords: _Coords, bar: Optional[Violation]
) -> Optional[Violation]:
    """The chunk's violation of largest deficit, ties broken by the least (x, y, t).

    None also when no deficit of the chunk reaches the deficit of ``bar``,
    the worst violation so far; an equal one may still win on (x, y, t).
    """
    import numpy as np

    if bar is not None and (lhs - rhs).max() < bar.deficit:
        return None
    violating = lhs > rhs * (1.0 + tol_rel)
    if not violating.any():
        return None
    deficit = lhs - rhs
    # a violating deficit is positive, so the mask never ties with the worst
    masked = np.where(violating, deficit, -np.inf)
    ties = np.flatnonzero(masked == masked.max())
    x, y, t = coords(ties)
    i = int(np.lexsort((t, y, x))[0]) if ties.size > 1 else 0
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

    The one-class case of :func:`check_alphas`, with the same samples,
    verdict, witness and errors.
    """
    (report,) = check_alphas(f, domain_upper, params.m, [params.alpha], grid_n=grid_n, tol_rel=tol_rel, seed=seed)
    return report


def check_sampling(grid_n: int, tol_rel: float) -> None:
    """Range-check a class check's grid_n, then its tol_rel; a ValueError names the first bad one."""
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [2, {MAX_GRID_N}], got {grid_n!r}")
    _check_tol_rel(tol_rel)


def _check_tol_rel(tol_rel: float) -> None:
    if not (math.isfinite(tol_rel) and tol_rel >= 0.0):
        raise ValueError(f"tol_rel must be a nonnegative real, got {tol_rel!r}")


def _check_domain(domain_upper: float) -> None:
    if not (math.isfinite(domain_upper) and domain_upper > 0.0):
        raise ValueError(f"domain_upper must be a positive finite real, got {domain_upper!r}")


def check_alphas(
    f: FunctionExpr,
    domain_upper: float,
    m: float,
    alphas: Sequence[float],
    *,
    grid_n: int = 33,
    tol_rel: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> list[ClassificationReport]:
    """Check the (alpha, m)-class of ``f`` on [0, domain_upper] for every alpha in ``alphas``, in one pass.

    Returns one report per alpha, in order. Every alpha is judged on the
    same samples, so each report equals a check of that class alone. A
    triple violates when lhs > rhs * (1 + tol_rel). A report's
    worst_violation maximizes the absolute deficit lhs - rhs over all
    violating triples, with lexicographic (x, y, t) tie-breaking.

    Raises:
        ValueError: m or an alpha lies outside (0, 1] (checked through
            ClassParams, m first), domain_upper is not a positive finite
            real, grid_n is outside [2, MAX_GRID_N], or tol_rel is not a
            nonnegative real.
        SampleEvaluationError: ``f`` produced a non-positive or non-finite
            value at some sampled point; the offending triple is attached.
            It is the first bad f(z) in sampling order, else the first bad
            f(x), else the first bad f(y), the same for every alpha.
    """
    import numpy as np

    ClassParams(m)
    for alpha in alphas:
        ClassParams(m, alpha)
    _check_domain(domain_upper)
    check_sampling(grid_n, tol_rel)

    n = grid_n
    # i/(n-1) is the exactly-rounded rational, so the size 2k+1 grid
    # contains the size k+1 grid bitwise.
    base = np.arange(n, dtype=float) / (n - 1)
    axis = domain_upper * base
    # The first bad f(x) and the first bad f(y), as (triple, message). A
    # bad f(z) raises at once: chunks come in sampling order and f(z) is
    # checked first. A bad f(x) or f(y) waits for the f(z) of later chunks.
    offenders: dict[str, tuple[tuple[float, float, float], str]] = {}

    def grid_chunks() -> Iterator[tuple[np.ndarray, _Coords, Optional[_Logs]]]:
        # Over the grid, x and y range over ``axis`` and t over ``base``:
        # f and ln f are taken there once. A chunk is a block of whole
        # t-rows, x-planes i0:i1 by y-rows j0:j1, whose z and ln rhs are
        # broadcast from per-axis slices in the order of operations of the
        # random chunks. Only f(z) needs all n**3 points.
        f_axis = f.evaluate_array(axis)
        hit = _first_bad(f_axis, axis)
        if hit is not None:  # the first samples with x = axis[i] and y = axis[i]
            i, message = hit
            offenders["x"] = ((float(axis[i]), 0.0, 0.0), message)
            offenders["y"] = ((0.0, float(axis[i]), 0.0), message)
        ln_f = np.log(f_axis)
        m_rest = m * (1.0 - base)
        rows = max(1, CHUNK // n)  # (x, y) rows of n t-values
        planes, rows = (rows // n, n) if rows >= n else (1, rows)
        for i0 in range(0, n, planes):
            i1 = min(n, i0 + planes)
            for j0 in range(0, n, rows):
                j1 = min(n, j0 + rows)

                def coords(idx: np.ndarray, i0: int = i0, j0: int = j0, shape=(i1 - i0, j1 - j0, n)):
                    i, j, k = np.unravel_index(idx, shape)
                    return axis[i0 + i], axis[j0 + j], base[k]

                xi, yj = np.s_[i0:i1, None, None], np.s_[None, j0:j1, None]
                z = (base * axis[xi] + m_rest * axis[yj]).ravel()
                yield z, coords, None if offenders else (ln_f[xi], ln_f[yj], base, m_rest)

    def random_chunks() -> Iterator[tuple[np.ndarray, _Coords, Optional[_Logs]]]:
        # Consecutive draws continue one stream: the chunks together equal
        # a single rng.random((n**3, 3)) draw, bit for bit.
        rng = np.random.Generator(np.random.PCG64(seed))
        for start in range(0, n**3, CHUNK):
            u = rng.random((min(CHUNK, n**3 - start), 3))
            x = domain_upper * u[:, 0]
            y = domain_upper * u[:, 1]
            t = u[:, 2].copy()  # contiguous: strided ufunc loops may round differently
            m_rest = m * (1.0 - t)

            def coords(idx: np.ndarray, x=x, y=y, t=t) -> tuple[np.ndarray, ...]:
                return x[idx], y[idx], t[idx]

            z = t * x + m_rest * y
            fx = f.evaluate_array(x)
            fy = f.evaluate_array(y)
            for key, hit in (("x", _first_bad(fx, x)), ("y", _first_bad(fy, y))):
                if hit is not None and key not in offenders:
                    offenders[key] = (_triple(coords, hit[0]), hit[1])
            yield z, coords, None if offenders else (np.log(fx), np.log(fy), t, m_rest)

    # The worst violation so far of each alpha, a fixed size however many chunks violate.
    worst: list[Optional[Violation]] = [None] * len(alphas)
    # A bad f(axis) is noted, not warned about; rhs in log space may
    # overflow to inf, and t_alpha = 0 and 1 then land on f(y)**m and (up
    # to one rounding) f(x) with no 0**0 ambiguity.
    with np.errstate(all="ignore"):
        for z, coords, logs in itertools.chain(grid_chunks(), random_chunks()):
            lhs = f.evaluate_array(z)
            hit = _first_bad(lhs, z)
            if hit is not None:
                raise SampleEvaluationError(_triple(coords, hit[0]), hit[1])
            if logs is None:
                continue
            ln_fx, ln_fy, t, m_rest = logs
            for k, (alpha, bar) in enumerate(zip(alphas, worst)):
                t_alpha = t if alpha == 1.0 else t**alpha
                rest = m_rest if alpha == 1.0 else m * (1.0 - t_alpha)
                rhs = np.exp((t_alpha * ln_fx + rest * ln_fy).ravel())
                witness = _chunk_worst(lhs, rhs, tol_rel, coords, bar)
                if witness is not None and (bar is None or _rank(witness) < _rank(bar)):
                    worst[k] = witness
    for key in ("x", "y"):
        if key in offenders:
            raise SampleEvaluationError(*offenders[key])
    return [
        ClassificationReport(verdict="pass" if w is None else "fail", samples=2 * n**3, worst_violation=w)
        for w in worst
    ]


def _rank(w: Violation) -> tuple[float, float, float, float]:
    """Orders violations worst first: the largest deficit, then the least (x, y, t)."""
    return -w.deficit, w.x, w.y, w.t


def _number(node: Node) -> Optional[float]:
    """v where ``node`` is the constant v or its negation -v, else None."""
    match node:
        case Const(v):
            return v
        case Unary("neg", Const(v)):
            return -v
    return None


def _slope(node: Node) -> Optional[float]:
    """k where ``node`` is k*x, also spelled x (k = 1) or -x (k = -1), else None."""
    match node:
        case Var():
            return 1.0
        case Unary("neg", Var()):
            return -1.0
        case Binary("*", factor, Var()):
            return _number(factor)
    return None


def _log_affine(f: FunctionExpr) -> Optional[tuple[float, float]]:
    """(c, k) where f is the const, exp_linear or exp_affine member c*exp(k*x), else None.

    f is the tree that the family's builder makes, or the same tree with
    x for 1*x, -x for -1*x or -v for a constant -v, as the parser reads
    `exp(x)`, `exp(-x)` or `exp(-2*x)`; each is exact, so such a tree
    evaluates bit for bit as the builder's. The exp_affine family's range
    check then refuses a c <= 0 and any value that is not finite.
    """
    match f.root:
        case Unary("exp", arg):
            c, k = 1.0, _slope(arg)
        case Binary("*", factor, Unary("exp", arg)):
            c, k = _number(factor), _slope(arg)
        case root:
            c, k = _number(root), 0.0
    if c is None or k is None:
        return None
    try:
        family_instantiate(FamilySpec("exp_affine", {"c": c, "k": k}))
    except FamilyError:
        return None
    return c, k


def exact_membership(
    f: FunctionExpr, domain_upper: float, params: ClassParams, tol_rel: float = 1e-9
) -> Optional[ClassificationReport]:
    """Decide the (alpha, m)-class of ``f`` on [0, domain_upper] from its closed form, or None where none applies.

    It applies to f = c*exp(k*x), a const, exp_linear or exp_affine
    member, where for k != 0 f is finite and positive at 0 and at
    domain_upper = B (so, being monotone, on the whole domain). Its
    log-deficit is (1 - m)*(1 - t**alpha)*ln c + k*(t - t**alpha)*(x - m*y)
    and t - t**alpha <= 0, so at every t the k term is largest at
    (x, y) = (0, B) for k > 0 and (B, 0) for k < 0. That leaves

        phi(t) = a*(1 - t**alpha) + s*(t**alpha - t),

    with a = (1 - m)*ln c, and s = k*m*B for k > 0, -k*B for k < 0, and 0
    for alpha = 1. phi(0) = a, phi(1) = 0 and phi' falls, so phi peaks at
    t = 0 where s <= a, at t = 1 where alpha*(1 - a/s) >= 1, and else at
    t = (alpha*(1 - a/s))**(1/(1 - alpha)). Where that peak is at most 0
    the report is a pass, and nothing is evaluated but the two ends.
    Otherwise the sampler's own test, lhs > rhs * (1 + tol_rel) with rhs
    computed in log space, is applied at the peak's triple, (0, 0, 0) for
    t = 0, and a fail carries it as the worst violation, the one of
    largest log-deficit. A decided report counts 0 samples.

    Raises:
        ValueError: domain_upper is not a positive finite real, or tol_rel
            is not a nonnegative real.
    """
    _check_domain(domain_upper)
    _check_tol_rel(tol_rel)
    member = _log_affine(f)
    if member is None:
        return None
    c, k = member
    m, alpha = params.m, params.alpha
    a = (1.0 - m) * math.log(c)
    s = 0.0 if alpha == 1.0 else k * m * domain_upper if k > 0.0 else -k * domain_upper
    if s <= a:  # phi peaks at t = 0
        worst = None if a <= 0.0 else (0.0, 0.0, 0.0)
    elif s == 0.0 or (peak := alpha * (1.0 - a / s)) >= 1.0:  # at t = 1; s = 0 also where k*B underflows
        worst = None
    else:
        t = peak ** (1.0 / (1.0 - alpha))  # where phi' = 0
        worst = (0.0, domain_upper, t) if k > 0.0 else (domain_upper, 0.0, t)
    if k != 0.0:
        ends = f.evaluate_array([0.0, domain_upper])
        if not (ends.min() > 0.0 and ends.max() < math.inf):  # the sampler names the first bad value
            return None
    if worst is None:
        return ClassificationReport(verdict="pass", samples=0)
    import numpy as np

    x, y, t = (np.array([value]) for value in worst)
    with np.errstate(all="ignore"):
        lhs = f.evaluate_array(t * x + m * (1.0 - t) * y)
        t_alpha = t**alpha
        rhs = np.exp(t_alpha * np.log(f.evaluate_array(x)) + m * (1.0 - t_alpha) * np.log(f.evaluate_array(y)))
        w = _chunk_worst(lhs, rhs, tol_rel, lambda idx: (x[idx], y[idx], t[idx]), None)
    return ClassificationReport(verdict="pass" if w is None else "fail", samples=0, worst_violation=w)
