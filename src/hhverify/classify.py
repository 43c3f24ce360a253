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
exact_membership decides from it, with no sampling, the class of every f
that reads as c*exp(k*x) (exp of an affine form in x, a constant, and
products and quotients of these), so grid_n and seed do not matter
there; check_alphas and check_alpha_m_log_convex always sample.

Sampling is deterministic. The grid part uses grid_n uniform points per
axis, endpoints included; a size-c grid lies inside a size-n grid bit for
bit whenever c - 1 divides n - 1 (size 2k+1 contains size k+1, and 33
contains 9). The random part draws grid_n**3 extra triples from a
fixed-seed generator as one stream, so the random part of a smaller
grid_n is a prefix of the same stream. Consequently a fail verdict never
flips back to pass under such a refinement. The verifier's gate uses
this: it screens a pass at grid_n 9 and samples in full only the alphas
that the screen does not fail (see verify._gate). check_alphas itself,
and so the classify command, always samples in full: its job is the
worst sampled witness and a sample count.

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

from .funcspec import Binary, Const, FunctionExpr, Node, Unary, Var

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


def check_sampling(grid_n: int, tol_rel: float, seed: int) -> None:
    """Range-check a class check's grid_n, tol_rel and seed, in order; a ValueError names the first bad one."""
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValueError(f"grid_n must lie in [2, {MAX_GRID_N}], got {grid_n!r}")
    _check_tol_rel(tol_rel)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


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
            real, grid_n is outside [2, MAX_GRID_N], tol_rel is not a
            nonnegative real, or seed is negative.
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
    check_sampling(grid_n, tol_rel, seed)

    n = grid_n
    # i/(n-1) is the correctly rounded rational, so a size-c grid lies
    # inside a size-n grid bitwise whenever c - 1 divides n - 1.
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


def _affine(node: Node) -> Optional[tuple[float, float]]:
    """(a, k) with ``node`` = a + k*x, constants folded as f folds them, else None."""
    match node:
        case Const(v):
            return v, 0.0
        case Var():
            return 0.0, 1.0
        case Unary("neg", arg) if form := _affine(arg):
            return -form[0], -form[1]
        case Binary(op, left, right) if (lf := _affine(left)) and (rf := _affine(right)):
            (a, k), (b, j) = lf, rf
            if op in ("+", "-"):
                return (a + b, k + j) if op == "+" else (a - b, k - j)
            if op == "*" and (j == 0.0 or k == 0.0):  # one factor is a constant
                return a * b, k * b if j == 0.0 else a * j
            if op == "/" and j == 0.0:
                return a / b, k / b
    return None


def _log_affine(node: Node) -> Optional[tuple[float, float]]:
    """(c, k) with ``node`` = c*exp(k*x), else None; it raises where f's constants overflow or divide by 0.

    exp(a + k*x) reads as (exp(a), k); a product or quotient multiplies or
    divides c and adds or subtracts k; any other node must be a constant.
    """
    match node:
        case Unary("exp", arg) if form := _affine(arg):
            return math.exp(form[0]), form[1]
        case Binary("*" | "/" as op, left, right) if (lf := _log_affine(left)) and (rf := _log_affine(right)):
            (c, k), (d, j) = lf, rf
            return (c * d, k + j) if op == "*" else (c / d, k - j)
    form = _affine(node)
    return form if form and form[1] == 0.0 else None


def exact_membership(
    f: FunctionExpr, domain_upper: float, params: ClassParams, tol_rel: float = 1e-9
) -> Optional[ClassificationReport]:
    """Decide the (alpha, m)-class of ``f`` on [0, domain_upper] from its closed form, or None where none applies.

    It applies where f reads as c*exp(k*x) with c > 0 and k finite (exp of
    an affine form in x, a constant, and products and quotients of these)
    and is finite and positive at 0 and at domain_upper = B (so on the
    whole domain, c*exp(k*x) being monotone). Its log-deficit is
    (1 - m)*(1 - t**alpha)*ln c + k*(t - t**alpha)*(x - m*y) and
    t - t**alpha <= 0, so at every t the k term is largest at
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
    largest log-deficit. A decided report counts 0 samples. A tree that
    evaluates bit for bit like a family builder's, as `exp(x)*2` does,
    gets that tree's report. Others, such as `exp(2*x+1)`, may differ from
    c*exp(k*x) by some ulps: a pass is then a claim about the real
    function, and a fail still tests f itself at the witness.

    Raises:
        ValueError: domain_upper is not a positive finite real, or tol_rel
            is not a nonnegative real.
    """
    _check_domain(domain_upper)
    _check_tol_rel(tol_rel)
    try:
        member = _log_affine(f.root)
    except (OverflowError, ZeroDivisionError):
        return None
    if member is None or not (0.0 < member[0] < math.inf and math.isfinite(member[1])):
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
