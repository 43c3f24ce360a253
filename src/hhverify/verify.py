"""Verdicts for single points, grid sweeps, and counterexample search.

A report compares one inequality at one parameter point and carries both
numeric sides, the margin rhs - lhs, and a verdict. The verdict rule is
total and replayable from the report fields alone:

    lhs is None                      -> "inconclusive"
    rhs is None                      -> "inapplicable"
    margin >= -margin_tolerance(...) -> "holds"
    otherwise                        -> "violated"

where margin_tolerance = 10 * quad_err + 1e-9 * max(1, |lhs|, |rhs|). The
quadrature term dominates when the integrator was the bottleneck; the
relative term absorbs closed-form rounding at exact-equality points.

Chain inequalities (the two refinement chains) evaluate every term but
report only the tightest adjacent pair, the one minimizing margin + its
tolerance. That pair violates its tolerance exactly when some pair in the
chain does, so replaying the verdict from the reported fields agrees with
checking the whole chain.

Hypothesis checking is class membership (see classify), decided exactly
where f reads as c*exp(k*x) and sampled elsewhere, where a coarse screen
decides every class it fails (see ``_gate``). A failed check makes
the verdict "inconclusive" rather than letting a bound that was never
claimed count as violated; a check that cannot run because the function
is not evaluable on the class domain does the same, with the failure
recorded in diagnostics.

Every report comes from one driver, the generator ``_reports``:
verify_theorems runs it on one point, sweep once per family member and
search_min_margin once per point it evaluates. Every report is built by
one constructor, ``_report``, whose verdict is replay_verdict of the
report's own fields, the inconclusive and inapplicable ones too.
"""
from __future__ import annotations

import itertools
import math
import random
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .bounds import (
    RATIO_ABOVE_ONE,
    ChainTerm,
    ClosedFormUnderflow,
    Endpoints,
    chain_dr1,
    chain_dr2,
    check_variant,
    eq4_rhs,
    eq22_rhs,
    eq31_branches,
    eq42_rhs,
)
from .classify import (
    DEFAULT_SEED,
    ClassificationReport,
    ClassParams,
    SampleEvaluationError,
    check_alpha_m_log_convex,  # unused here; the benchmark's tracer (perfbench/tracer.py) wraps this name
    check_alphas,
    check_sampling,
    exact_membership,
)
from .funcspec import (
    EvaluationError, FamilyError, FamilySpec, FunctionExpr, check_family_value, family_instantiate, family_parameters,
)
from .means import arithmetic_mean
from .quadrature import (
    IntegrandError, Interval, QuadResult, check_tol, log_integrand, mean_integral, mixed_geometric_integrand,
    sym_geometric_integrand,
)

__all__ = [
    "THEOREMS",
    "CHAIN_THEOREMS",
    "HOLDS",
    "VIOLATED",
    "INAPPLICABLE",
    "INCONCLUSIVE",
    "VERDICTS",
    "HYP_PASS",
    "HYP_FAIL",
    "HYP_SKIPPED",
    "ReportParams",
    "InequalityReport",
    "SweepSummary",
    "SearchResult",
    "margin_tolerance",
    "replay_verdict",
    "verify_theorem",
    "verify_theorems",
    "sweep",
    "search_min_margin",
]

HOLDS = "holds"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"
INCONCLUSIVE = "inconclusive"
VERDICTS = (HOLDS, VIOLATED, INAPPLICABLE, INCONCLUSIVE)

HYP_PASS = "pass"
HYP_FAIL = "fail"
HYP_SKIPPED = "skipped"


@dataclass(frozen=True)
class ReportParams:
    """The parameter point a report was evaluated at.

    family is the sorted (name, value) pairs of the generating family, or
    None when the function came from a raw expression.
    """

    a: float
    b: float
    alpha: float
    m: float
    family: Optional[tuple[tuple[str, float], ...]] = None


@dataclass(frozen=True)
class InequalityReport:
    theorem: str
    variant: str
    params: ReportParams
    hypothesis: str  # "pass" | "fail" | "skipped"
    lhs: Optional[float]
    rhs: Optional[float]
    margin: Optional[float]
    quad_err: float
    verdict: str
    diagnostics: Optional[str] = field(default=None, compare=False)
    terms: tuple[ChainTerm, ...] = field(default=(), compare=False)  # a chain's terms, when evaluated


@dataclass(frozen=True)
class SweepSummary:
    reports: tuple[InequalityReport, ...]
    min_margin: Optional[InequalityReport]  # the first report of least margin
    counts: Mapping[str, int]


@dataclass(frozen=True)
class SearchResult:
    best_params: Mapping[str, float]
    best_margin: float  # math.inf when no evaluated point produced a margin
    report: InequalityReport
    evals: int  # points visited, counting those of a repeated line search returned from memory


def margin_tolerance(lhs: float, rhs: float, quad_err: float) -> float:
    """Slack below which a negative margin is still treated as holding."""
    return 10.0 * quad_err + 1e-9 * max(1.0, abs(lhs), abs(rhs))


def replay_verdict(
    lhs: Optional[float],
    rhs: Optional[float],
    margin: Optional[float],
    quad_err: float,
) -> str:
    """Recompute a report's verdict from its numeric fields."""
    if lhs is None:
        return INCONCLUSIVE
    if rhs is None:
        return INAPPLICABLE
    if margin is None:
        raise ValueError("margin must be set when both sides are")
    return HOLDS if margin >= -margin_tolerance(lhs, rhs, quad_err) else VIOLATED


def _require_theorem(theorem: str) -> _Theorem:
    try:
        return _TABLE[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r} (known: {', '.join(THEOREMS)})") from None


# ---------------------------------------------------------------------------
# per-point evaluation

def _gate(
    f: FunctionExpr, upper: float, classes: Iterable[ClassParams], sampling: Optional[tuple[int, float, int]]
) -> dict[ClassParams, tuple[str, Optional[str]]]:
    """The (hypothesis, diagnostics) of each effective class in ``classes``, judged on [0, upper / m_eff].

    ``sampling`` is the checks' (grid_n, tol_rel, seed); without it every
    class is skipped. Otherwise a class that ``exact_membership`` decides
    takes its verdict, and one sampling pass per m_eff judges all of its
    other alphas, or none runs. A failed class carries the witness of its
    worst violation, and every class of an aborted pass carries the abort;
    such diagnostics keep the bound from being evaluated. A pass whose
    domain overflows, upper / m_eff = inf, is aborted without sampling.

    A fail needs one witness; only a pass needs every sample. Where
    grid_n > 9 and 8 divides grid_n - 1, each pass is screened first at
    grid_n 9, whose sample is part of the full one bit for bit (every
    4th axis point at 33, and the first 729 random draws). An alpha that
    fails the screen is decided with the screen's worst violation; only
    the others go on to the full pass. A screen that aborts decides
    nothing, and the full pass then aborts with the first bad value in
    full-sample order. So an f that is bad only where the full sample
    reaches, and fails the screen, reads as a witnessed fail rather than
    an abort: both are inconclusive, and the witness, at which f is
    finite and positive, proves f outside the class.
    """
    if sampling is None:
        return dict.fromkeys(classes, (HYP_SKIPPED, None))
    grid_n, tol_rel, seed = sampling
    by_m: dict[float, list[ClassParams]] = {}
    for eff in classes:
        by_m.setdefault(eff.m, []).append(eff)
    gate: dict[ClassParams, tuple[str, Optional[str]]] = {}
    for m, effs in by_m.items():
        domain_upper = upper / m
        if not math.isfinite(domain_upper):
            aborted = f"class check aborted: the class domain [0, b / m] overflows at b={upper!r}, m={m!r}"
            gate.update(dict.fromkeys(effs, (HYP_SKIPPED, aborted)))
            continue
        sampled = []
        for eff in effs:
            report = exact_membership(f, domain_upper, eff, tol_rel)
            if report is None:
                sampled.append(eff)
            else:
                gate[eff] = _outcome(report, domain_upper)
        # the 9-grid lies inside the full sample where 8 | grid_n - 1, so a fail there is a fail
        for size in (9, grid_n) if grid_n > 9 and (grid_n - 1) % 8 == 0 else (grid_n,):
            if not sampled:
                break
            try:
                checked = check_alphas(
                    f, domain_upper, m, [eff.alpha for eff in sampled], grid_n=size, tol_rel=tol_rel, seed=seed
                )
            except SampleEvaluationError as err:  # a screen's abort decides nothing
                if size == grid_n:
                    gate.update(dict.fromkeys(sampled, (HYP_SKIPPED, f"class check aborted: {err}")))
                continue
            for eff, report in zip(sampled, checked):
                if size == grid_n or report.worst_violation is not None:
                    gate[eff] = _outcome(report, domain_upper)
            sampled = [eff for eff in sampled if eff not in gate]
    return gate


def _outcome(report: ClassificationReport, domain_upper: float) -> tuple[str, Optional[str]]:
    """A decided or sampled class's (hypothesis, diagnostics): a fail names its worst violation."""
    w = report.worst_violation  # None where the class passed
    return (HYP_PASS, None) if w is None else (HYP_FAIL, (
        f"class check failed on [0, {domain_upper!r}] at (x={w.x!r}, y={w.y!r}, t={w.t!r})"
        f" with deficit {w.deficit!r}"
    ))


class _IntegralCache:
    """Integrals and values of ``f`` on ``iv``, computed lazily and shared by every report.

    The one place on the report path that evaluates or integrates f: every
    bound and both chains read their means of f, ln f and the kernels, the
    endpoint record and the midpoint value here, and the closed forms and
    chains in ``bounds`` are plain functions of what they read. Nothing
    depends on alpha, and the mixed kernel and the endpoints are keyed by
    m, so one cache serves all theorems and all (alpha, m) points on one
    interval. A value that raised is cached too, so a second theorem
    needing it re-raises instead of evaluating up to the same bad abscissa
    again. A cache lives for one call of the public entry points only;
    search_min_margin carries it from a point to the next while the family
    parameters, a, b and the tolerance stay the same.
    """

    def __init__(self, f: FunctionExpr, iv: Interval, tol: float):
        self.f = f
        self.iv = iv
        self.tol = tol
        self._store: dict[tuple[str, Optional[float]], QuadResult | Endpoints | float | Exception] = {}

    def _get(self, key: tuple[str, Optional[float]], thunk: Callable[[], Any]) -> Any:
        if key not in self._store:
            try:
                self._store[key] = thunk()
            except (EvaluationError, IntegrandError) as err:
                self._store[key] = err
        cached = self._store[key]
        if isinstance(cached, Exception):
            raise cached
        return cached

    def retain(self, m_values: Sequence[float]) -> None:
        """Forget the values at an m outside ``m_values``, so a cache carried along a line does not grow."""
        self._store = {key: value for key, value in self._store.items() if key[1] is None or key[1] in m_values}

    def mean_f(self) -> QuadResult:
        return self._get(("mean_f", None), lambda: mean_integral(self.f, self.iv, self.tol))

    def mean_log(self) -> QuadResult:
        return self._get(("mean_log", None), lambda: mean_integral(log_integrand(self.f), self.iv, self.tol))

    def sym_geometric(self) -> QuadResult:
        s = self.iv.a + self.iv.b
        return self._get(
            ("sym_geometric", None),
            lambda: mean_integral(sym_geometric_integrand(self.f, s), self.iv, self.tol),
        )

    def mixed_geometric(self, m: float) -> QuadResult:
        if m == 1.0:
            return self.sym_geometric()
        s = self.iv.a + self.iv.b
        return self._get(
            ("mixed_geometric", m),
            lambda: mean_integral(mixed_geometric_integrand(self.f, s, m), self.iv, self.tol),
        )

    def endpoints(self, m: float) -> Endpoints:
        return self._get(("endpoints", m), lambda: Endpoints.of(self.f, self.iv, m))

    def midpoint(self) -> float:
        return self._get(("midpoint", None), lambda: self.f.evaluate(arithmetic_mean(self.iv.a, self.iv.b)))


def _report(
    theorem: str,
    variant: str,
    rp: ReportParams,
    hyp: str,
    lhs: Optional[float] = None,
    rhs: Optional[float] = None,
    quad_err: float = 0.0,
    diagnostics: Optional[str] = None,
    terms: tuple[ChainTerm, ...] = (),
) -> InequalityReport:
    """The one constructor of a report: its margin and verdict follow from its own fields."""
    margin = None if lhs is None or rhs is None else rhs - lhs
    return InequalityReport(
        theorem, variant, rp, hyp, lhs=lhs, rhs=rhs, margin=margin, quad_err=quad_err,
        verdict=replay_verdict(lhs, rhs, margin, quad_err), diagnostics=diagnostics, terms=terms,
    )


# ---------------------------------------------------------------------------
# the theorem table
#
# Each theorem is evaluated at its effective class from the shared
# integrals and returns the fields of its report: (lhs, rhs, quad_err,
# diagnostics, terms). The closed forms and chains are looked up in this
# module's namespace at call time, so a wrapper installed on, say,
# ``hhverify.verify.eq4_rhs`` sees every call. Each theorem fetches its
# values in a fixed order, so the first one that fails names the error in
# the report's diagnostics.

_Fields = tuple[float, Optional[float], float, Optional[str], tuple[ChainTerm, ...]]


def _compare(lhs: float, lhs_err: float, rhs: Optional[float], rhs_err: float = 0.0) -> _Fields:
    """A single bound's fields: lhs against its side, or lhs alone where the closed form's ratio exceeds one."""
    if rhs is None:
        return lhs, None, lhs_err, RATIO_ABOVE_ONE, ()
    return lhs, rhs, lhs_err + rhs_err, None, ()


def _tightest(terms: tuple[ChainTerm, ...]) -> _Fields:
    """A chain's fields: its adjacent pair of least margin + tolerance, the first of equal ones."""

    def slack(pair: tuple[ChainTerm, ChainTerm]) -> float:
        lo, hi = pair
        return hi.value - lo.value + margin_tolerance(lo.value, hi.value, lo.err_est + hi.err_est)

    first, second = min(itertools.pairwise(terms), key=slack)
    tightest = f"tightest adjacent pair: {first.label} <= {second.label}"
    return first.value, second.value, first.err_est + second.err_est, tightest, terms


def _dr1(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    return _tightest(chain_dr1(cache.sym_geometric(), cache.midpoint(), cache.endpoints(1.0)))


def _dr2(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    return _tightest(
        chain_dr2(cache.endpoints(1.0), cache.mean_log(), cache.sym_geometric(), cache.mean_f(), cache.midpoint())
    )


def _eq4(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    lhs = cache.mean_f()
    return _compare(lhs.value, lhs.err_est, eq4_rhs(cache.endpoints(eff.m)))


def _eq11(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    rhs = cache.mixed_geometric(eff.m)
    return _compare(cache.midpoint(), 0.0, rhs.value, rhs.err_est)


def _eq22(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    lhs = cache.sym_geometric()
    return _compare(lhs.value, lhs.err_est, eq22_rhs(cache.endpoints(eff.m), variant))


def _eq31(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    lhs = cache.mean_f()
    return _compare(lhs.value, lhs.err_est, eq31_branches(cache.endpoints(eff.m), eff.alpha)[0])


def _eq42(cache: _IntegralCache, eff: ClassParams, variant: str) -> _Fields:
    lhs = cache.sym_geometric()
    return _compare(lhs.value, lhs.err_est, eq42_rhs(cache.endpoints(eff.m), eff.alpha, variant))


@dataclass(frozen=True)
class _Theorem:
    """What verify knows about one theorem.

    A chain assumes plain log-convexity and does not depend on (alpha, m),
    so its reports carry (1, 1). uses_alpha marks the bounds whose
    hypothesis needs the (alpha, m)-class; the others need only the m-class.
    """

    compute: Callable[[_IntegralCache, ClassParams, str], _Fields]
    chain: bool = False
    uses_alpha: bool = False

    def effective_class(self, m: float, alpha: float) -> ClassParams:
        """The class the hypothesis needs at the requested (m, alpha)."""
        if self.chain:
            return ClassParams(m=1.0, alpha=1.0)
        return ClassParams(m=m, alpha=alpha if self.uses_alpha else 1.0)

    def report_params(
        self, a: float, b: float, m: float, alpha: float, family: Optional[tuple[tuple[str, float], ...]]
    ) -> ReportParams:
        if self.chain:
            alpha = m = 1.0
        return ReportParams(float(a), float(b), float(alpha), float(m), family)


_TABLE = {
    "dr1": _Theorem(_dr1, chain=True),
    "dr2": _Theorem(_dr2, chain=True),
    "eq4": _Theorem(_eq4),
    "eq11": _Theorem(_eq11),
    "eq22": _Theorem(_eq22),
    "eq31": _Theorem(_eq31, uses_alpha=True),
    "eq42": _Theorem(_eq42, uses_alpha=True),
}
THEOREMS = tuple(_TABLE)
CHAIN_THEOREMS = tuple(name for name, spec in _TABLE.items() if spec.chain)


def _reports(
    theorems: Sequence[str],
    f: FunctionExpr,
    family: Optional[tuple[tuple[str, float], ...]],
    intervals: Iterable[Interval],
    alpha_values: Sequence[float],
    m_values: Sequence[float],
    *,
    variant: str,
    tol: float,
    sampling: Optional[tuple[int, float, int]],
    domain_upper: Optional[float] = None,
    reuse: Optional[dict[bytes, _IntegralCache]] = None,
) -> Iterator[InequalityReport]:
    """The reports of ``theorems`` for ``f``: by interval, then alpha, then m, then theorem.

    Each interval gets one integral cache for all of its (alpha, m) points,
    and the effective classes are worked out once per call. Every report
    reads its hypothesis from one ``_gate`` table per distinct upper,
    ``domain_upper`` or else the interval's b: with ``sampling``, each
    class is checked on [0, upper / m_eff], decided exactly where the rule
    covers f and otherwise sampled with every other such alpha that the
    call pairs with m_eff: in one screen, then in one full pass for the
    alphas the screen does not fail. A failed or aborted check,
    a failed evaluation or integral, and a closed form that overflows or
    underflows each make the report inconclusive, with the reason in its
    diagnostics. The reports of one point that carry the same parameters
    share one ReportParams (the CLI memoises its text by identity).

    The cache of the last interval is kept, keyed by the bits of
    ``family``'s values, a, b and ``tol``, and an interval with the same
    bits reads it instead of integrating again. Comparing bits keeps 0.0
    and -0.0 apart, and a call at another ``tol`` never reads integrals
    computed at this one. It is kept in ``reuse`` when given, so a caller
    that passes the same dict and a family from call to call carries it
    from one call to the next; the dict never holds more than one cache.
    """
    specs = [(theorem, _TABLE[theorem]) for theorem in theorems]
    plan = [
        (alpha, m, [(theorem, spec, spec.effective_class(m, alpha)) for theorem, spec in specs])
        for alpha in alpha_values
        for m in m_values
    ]
    classes = list(dict.fromkeys(eff for _, _, steps in plan for _, _, eff in steps))  # in order of first need
    last = {} if reuse is None else reuse
    gates: dict[float, dict[ClassParams, tuple[str, Optional[str]]]] = {}
    for iv in intervals:
        key = _bits(*(value for _, value in family or ()), iv.a, iv.b, tol)
        cache = last.get(key)
        if cache is None:
            last.clear()
            cache = last[key] = _IntegralCache(f, iv, tol)
        else:
            cache.retain(m_values)
        upper = iv.b if domain_upper is None else domain_upper
        if upper not in gates:
            gates[upper] = _gate(f, upper, classes, sampling)
        gate = gates[upper]
        for alpha, m, steps in plan:
            params: dict[bool, ReportParams] = {}
            for theorem, spec, eff in steps:
                hyp, diagnostics = gate[eff]
                if spec.chain not in params:
                    params[spec.chain] = spec.report_params(iv.a, iv.b, m, alpha, family)
                rp = params[spec.chain]
                if diagnostics is None:
                    try:
                        report = _report(theorem, variant, rp, hyp, *spec.compute(cache, eff, variant))
                    except (EvaluationError, IntegrandError) as err:
                        diagnostics = str(err)
                    except OverflowError as err:
                        diagnostics = f"closed form overflowed: {err}"
                    except ClosedFormUnderflow as err:
                        diagnostics = f"closed form underflowed: {err}"
                if diagnostics is not None:
                    report = _report(theorem, variant, rp, hyp, diagnostics=diagnostics)
                yield report


def _bits(*values: float) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _family_pairs(family: Optional[FamilySpec]) -> Optional[tuple[tuple[str, float], ...]]:
    if family is None:
        return None
    return tuple(sorted((name, float(value)) for name, value in family.params.items()))


def _check_request(theorems: Sequence[str], variant: str, tol: float) -> None:
    """Validate the theorem names, the variant and the tolerance, in that order."""
    for theorem in theorems:
        _require_theorem(theorem)
    check_variant(variant)
    check_tol(tol)  # no integral may run to check it, as on an interval where f fails


def _check_point_values(values: Mapping[str, Iterable[float]]) -> None:
    """Range-check a request's point values, ``{name: values}`` for some of a, b, m and alpha, name by name.

    Every a and b must be finite and every a >= 0; m and alpha go through
    ClassParams, since a theorem whose effective class ignores them would
    otherwise take any value without complaint.
    """
    for name, given in values.items():
        given = list(given)
        if name in ("a", "b") and not all(math.isfinite(value) for value in given):
            raise ValueError(f"{name} values must be finite, got {given!r}")
        if name == "a" and any(value < 0.0 for value in given):
            raise ValueError(f"a values must stay >= 0, got {given!r}")
        if name in ("m", "alpha"):
            for value in given:
                ClassParams(**{"m": 1.0, name: value})


def verify_theorems(
    theorems: Sequence[str],
    f: FunctionExpr,
    iv: Interval,
    *,
    m: float = 1.0,
    alpha: float = 1.0,
    variant: str = "corrected",
    tol: float = 1e-10,
    check_hypothesis: bool = True,
    grid_n: int = 33,
    tol_rel: float = 1e-9,
    seed: int = DEFAULT_SEED,
    family: Optional[FamilySpec] = None,
) -> list[InequalityReport]:
    """Verify several inequalities for ``f`` on ``iv``, one report each, in order.

    With check_hypothesis on, class membership is judged on
    [0, b / m_eff] first (m_eff from each theorem's effective class); a
    failed or aborted check yields an inconclusive report instead of a
    numeric comparison. A class is decided exactly where
    ``classify.exact_membership`` applies (f reads as c*exp(k*x)), and
    grid_n and seed then do not matter; the others are sampled. Each
    distinct effective class is judged once, the sampled classes of one
    m_eff in one screen and one full sampling pass for those it does not
    fail (see ``_gate``), and each integral is computed once, so the
    reports equal those of separate ``verify_theorem`` calls at a fraction
    of the cost.
    ``family`` is labeling metadata only; it does not have to match ``f``,
    but the CLI always passes the spec it built the function from.
    """
    _check_request(theorems, variant, tol)
    _check_point_values({"m": [m], "alpha": [alpha]})  # Interval has checked a and b
    check_sampling(grid_n, tol_rel, seed)  # also with check_hypothesis off, like m and alpha
    return list(
        _reports(
            theorems, f, _family_pairs(family), [iv], [alpha], [m], variant=variant, tol=tol,
            sampling=(grid_n, tol_rel, seed) if check_hypothesis else None,
        )
    )


def verify_theorem(theorem: str, f: FunctionExpr, iv: Interval, **keywords: Any) -> InequalityReport:
    """Verify one inequality for ``f`` on ``iv`` and return the report.

    The single-theorem case of :func:`verify_theorems`, which takes the
    keywords and owns their defaults.
    """
    return verify_theorems([theorem], f, iv, **keywords)[0]


# ---------------------------------------------------------------------------
# sweeps

_HYPOTHESIS_MODES = ("off", "once", "per-point")


def sweep(
    family: str,
    family_grids: Mapping[str, Sequence[float]],
    a_values: Sequence[float],
    b_values: Sequence[float],
    m_values: Sequence[float],
    alpha_values: Sequence[float],
    theorems: Sequence[str],
    *,
    variant: str = "corrected",
    tol: float = 1e-10,
    hypothesis: str = "off",
    grid_n: int = 33,
    tol_rel: float = 1e-9,
    seed: int = DEFAULT_SEED,
) -> SweepSummary:
    """Verify ``theorems`` over the cartesian grid of family and interval parameters.

    Iteration order is deterministic: family parameters (names sorted),
    then a, b, alpha, m, then the theorems in the order given. Points with
    a >= b are skipped without a report; a non-finite a or b value, a
    negative a, or a grid_n, tol_rel or seed that a class check would
    refuse is a ValueError before any work, whatever the hypothesis mode.
    An unknown family, a missing or unexpected parameter name, or any grid
    value outside its parameter's range is a FamilyError, before any work too.
    Hypothesis modes: "off" skips membership checks, "per-point" checks
    each point on [0, b / m_eff], and "once" checks each family member on
    [0, max(b) / m_eff]. Either way a class is judged once per distinct
    (family member, domain, effective class), since it does not depend on
    a: each member's reports read one gate table per domain. A class that
    ``classify.exact_membership`` decides (f that reads as c*exp(k*x))
    is not sampled, so grid_n and seed do not matter to it; one screen,
    then one sampling pass for the alphas it does not fail, judges every
    other alpha of one domain and m_eff.

    Each family member is one run of the shared report driver: its
    effective classes are worked out once per (theorem, alpha, m), and
    each interval computes its integrals once for all of its (alpha, m)
    points, since integrals do not depend on alpha and the mixed kernel is
    keyed by m. Verdict counts and the minimum margin come from one pass
    over the reports.

    Inconclusive points never abort the sweep; they are reported and
    counted like any other verdict.
    """
    _check_request(theorems, variant, tol)
    if hypothesis not in _HYPOTHESIS_MODES:
        raise ValueError(f"hypothesis mode must be one of {_HYPOTHESIS_MODES}, got {hypothesis!r}")
    _check_point_values({"a": a_values, "b": b_values, "m": m_values, "alpha": alpha_values})
    check_sampling(grid_n, tol_rel, seed)
    family_parameters(family, family_grids)

    names = sorted(family_grids)
    grids = [[check_family_value(family, name, value) for value in family_grids[name]] for name in names]
    domain_upper = max(b_values, default=None) if hypothesis == "once" else None
    sampling = None if hypothesis == "off" else (grid_n, tol_rel, seed)
    reports: list[InequalityReport] = []
    for combo in itertools.product(*grids):
        spec = FamilySpec(family, dict(zip(names, combo)))
        f = family_instantiate(spec)
        reports.extend(
            _reports(
                theorems, f, _family_pairs(spec),
                (Interval(a, b) for a in a_values for b in b_values if a < b),
                alpha_values, m_values, variant=variant, tol=tol,
                sampling=sampling, domain_upper=domain_upper,
            )
        )

    counts = dict.fromkeys(VERDICTS, 0)
    best: Optional[InequalityReport] = None
    for report in reports:
        counts[report.verdict] += 1
        if report.margin is not None and (best is None or report.margin < best.margin):
            best = report
    return SweepSummary(reports=tuple(reports), min_margin=best, counts=counts)


# ---------------------------------------------------------------------------
# counterexample search

_POINT_KEYS = ("a", "b", "alpha", "m")
_POINT_DEFAULTS = {"a": 0.0, "b": 1.0, "alpha": 1.0, "m": 1.0}
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET_REL = 1e-12
# search ranks its points at max(tol, _SCREEN_TOL); at 1e-5 the eq42 benchmark
# hunt ends 2e-11 worse, at 1e-7 the hunts cost 30% more CPU
_SCREEN_TOL = 1e-6


def search_min_margin(
    family: str,
    box: Mapping[str, tuple[float, float]],
    theorem: str,
    *,
    variant: str = "corrected",
    budget: int = 200,
    tol: float = 1e-10,
    fixed: Optional[Mapping[str, float]] = None,
    seed: int = DEFAULT_SEED,
) -> SearchResult:
    """Minimize the margin of ``theorem`` over a box of parameters.

    ``box`` maps parameter names (family parameters and optionally a, b,
    alpha, m) to (lo, hi) ranges; ``fixed`` pins parameters to constants.
    Unmentioned interval parameters default to a=0, b=1, alpha=1, m=1.
    The search spends ceil(budget/2) evaluations on a low-discrepancy
    lattice over the box, then cycles coordinate-wise golden-section
    refinement from the best point until the budget runs out or a cycle
    stops improving. Each line ends when its bracket shrinks below 1e-12 of
    its range, or earlier at exactly a range bound: after the first golden
    step, the bound that is still an end of the bracket is evaluated with
    the point 1e-12 of the range inside it, and if the bound is no worse
    than that point and than the line's best, the minimum of a unimodal
    line lies within 1e-12 of the bound. A cycle counts as improving only
    if it lowers the best screened margin by more than the sum of the
    screened ``quad_err`` of its first and last best points, so a hunt
    that has reached equality does not go on cycling on quadrature noise;
    the best point still moves on any strictly lower margin.

    An unknown family, a family parameter that has neither a range nor a
    fixed value, a name that is neither the family's nor one of a, b,
    alpha, m, or a fixed family value outside its parameter's range is a
    FamilyError before any work, as in ``sweep``. A ValueError before any
    work refuses a name with both a range and a fixed value, a range
    without lo < hi and a finite width, and a fixed value or range end of
    a, b, alpha or m that ``sweep`` would refuse in its grid. Points that
    fail to evaluate (a >= b after assembly, a box value outside its
    family parameter's range, evaluation errors) count toward the budget
    with an infinite margin. Hypothesis checking is never run here; the
    point of the search is hunting violations, gated or not.

    Points are ranked by their margin alone, at a screening tolerance,
    max(tol, 1e-6): every lattice point and every point of a line search
    integrates to it. The best point is then computed once more at
    ``tol``, and that report and its margin are the result, so they are
    exactly what ``verify_theorem`` reports at that point. This last
    computation is not counted in ``evals`` or the budget; it is the only
    computation of a box with no dimensions. Margins that differ by less
    than the screening error, such as a hunt that ends within 1e-13 of
    equality, cannot be ranked against each other.

    Nothing is computed twice in a row. A point whose family parameters,
    a, b and tolerance have the bits of the previous point's (a line along
    alpha or m) reads that point's integrals. A line search that would
    repeat the last one along its coordinate returns that result from
    memory, and its points still count toward ``evals`` and the budget, so
    the result is the same as if they were evaluated again. Both memos
    hold one entry (one per coordinate for the lines), whatever the budget.
    """
    _check_request([theorem], variant, tol)
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    fixed = dict(fixed or {})
    param_names = family_parameters(family, (set(box) | set(fixed)) - set(_POINT_KEYS))
    overlap = sorted(set(box) & set(fixed))
    if overlap:
        raise ValueError(f"parameters {overlap} appear in both box and fixed")

    dims = sorted(box)
    ranges: list[tuple[float, float]] = []
    for name in dims:
        lo, hi = box[name]
        if not (math.isfinite(hi - lo) and lo < hi):  # a finite width also needs finite ends
            raise ValueError(f"box range for {name!r} must have lo < hi and a finite width, got {(lo, hi)!r}")
        ranges.append((float(lo), float(hi)))
    _check_point_values({
        name: [fixed[name]] if name in fixed else box.get(name, ()) for name in ("a", "b", "m", "alpha")
    })
    for name in param_names:
        if name in fixed:
            check_family_value(family, name, fixed[name])

    def assemble(coords: Sequence[float]) -> dict[str, float]:
        point = dict(_POINT_DEFAULTS)
        point.update({k: float(v) for k, v in fixed.items()})
        for name, value in zip(dims, coords):
            point[name] = float(value)
        return point

    last_cache: dict[bytes, _IntegralCache] = {}

    def report_at(coords: Sequence[float], point_tol: float) -> InequalityReport:
        point = assemble(coords)
        spec = FamilySpec(family, {name: point[name] for name in param_names})
        a, b, alpha, m = point["a"], point["b"], point["alpha"], point["m"]
        if not a < b:
            detail = f"empty interval: a={a!r} >= b={b!r}"
        else:
            try:
                f = family_instantiate(spec)
            except FamilyError as err:
                detail = str(err)
            else:
                return next(_reports(
                    [theorem], f, _family_pairs(spec), [Interval(a, b)], [alpha], [m], variant=variant,
                    tol=point_tol, sampling=None, reuse=last_cache,
                ))
        rp = _TABLE[theorem].report_params(a, b, m, alpha, _family_pairs(spec))
        return _report(theorem, variant, rp, HYP_SKIPPED, diagnostics=detail)

    screen_tol = max(tol, _SCREEN_TOL)

    def margin_at(coords: Sequence[float]) -> tuple[float, float]:
        """The screened (margin, quad_err) at ``coords``; (inf, 0.0) if it fails."""
        report = report_at(coords, screen_tol)
        return (math.inf, 0.0) if report.margin is None else (report.margin, report.quad_err)

    def explore() -> tuple[list[float], int]:
        """The coordinates of the least screened margin, and the evals spent."""
        rng = random.Random(seed)
        offsets = [rng.random() for _ in dims]
        gammas = [math.sqrt(p) % 1.0 for p in _PRIMES[: len(dims)]]
        evals = math.ceil(budget / 2)
        lattice = (
            [lo + ((offsets[j] + i * gammas[j]) % 1.0) * (hi - lo) for j, (lo, hi) in enumerate(ranges)]
            for i in range(evals)
        )
        # min keeps the first of equal margins, and the first point even when every margin is inf
        (best_margin, best_err), best_coords = min(
            ((margin_at(coords), coords) for coords in lattice), key=lambda mc: mc[0][0],
        )

        # coordinate -> (bits of the other coordinates, result) of the last
        # search along it that ended on its bracket or its bound
        last_lines: dict[int, tuple[bytes, tuple[float, float, float, int]]] = {}

        def line_minimize(j: int, cap: int) -> tuple[float, float, float, int]:
            """Golden-section along coordinate j from the current best point: (x, margin, quad_err, used).

            The first golden step leaves one range bound as an end of the
            bracket. If ``cap`` leaves room for two more evals, and h =
            _BRACKET_REL * (hi - lo) is not lost in the rounding of the bound,
            that bound is tested once, by its slope: g at the bound, and g at
            h inside it. If g(bound) is no larger than g(bound +- h) and no
            larger than the line's best so far, a unimodal g has its minimum
            within h of the bound, the precision the bracket would reach, so
            the line ends at exactly the bound. Otherwise the golden search
            goes on, keeping a probe point that is better than its best.

            A search depends only on the other coordinates and ``cap``. One that
            ended on its bracket or its bound with ``used`` evals gives the same
            result under any cap of at least ``used``, so it is returned again,
            with the same ``used``, when the other coordinates have its bits. A
            search that stops on its cap spends the rest of the budget, so none
            follows it.
            """
            others = _bits(*best_coords[:j], *best_coords[j + 1:])
            if j in last_lines and last_lines[j][0] == others and last_lines[j][1][3] <= cap:
                return last_lines[j][1]
            lo, hi = ranges[j]
            h = _BRACKET_REL * (hi - lo)
            base = list(best_coords)

            def g(x: float) -> tuple[float, float]:
                base[j] = x
                return margin_at(base)

            left, right = lo, hi
            c = right - _INVPHI * (right - left)
            d = left + _INVPHI * (right - left)
            gc, gd = g(c), g(d)
            used = 2
            line = (c, *gc) if gc[0] <= gd[0] else (d, *gd)
            probe, done = True, False
            while (right - left) > h and used < cap:
                if gc[0] <= gd[0]:
                    right, d, gd = d, c, gc
                    c = right - _INVPHI * (right - left)
                    gc = g(c)
                else:
                    left, c, gc = c, d, gd
                    d = left + _INVPHI * (right - left)
                    gd = g(d)
                used += 1
                candidate = (c, *gc) if gc[0] <= gd[0] else (d, *gd)
                if candidate[1] < line[1]:
                    line = candidate
                if probe:
                    # the one bound test, at the first chance; where h is below
                    # the spacing of floats at the bound, inner is the bound itself
                    probe = False
                    bound, inner = (lo, lo + h) if left == lo else (hi, hi - h)
                    if used + 2 <= cap and inner != bound:
                        g_bound, g_inner = g(bound), g(inner)
                        used += 2
                        if g_bound[0] <= min(g_inner[0], line[1]):
                            line, done = (bound, *g_bound), True
                            break
                        for candidate in ((inner, *g_inner), (bound, *g_bound)):
                            if candidate[1] < line[1]:
                                line = candidate
            result = (*line, used)
            if done or (right - left) <= h:
                last_lines[j] = (others, result)
            return result

        improved = True
        while improved and budget - evals >= 2:
            # a cycle improves only by more than the screening error of its
            # first and last best points, so it does not go on cycling on noise
            cycle_margin, cycle_err = best_margin, best_err
            for j in range(len(dims)):
                cap = budget - evals
                if cap < 2:
                    break
                x, fx, ex, used = line_minimize(j, cap)
                evals += used
                if fx < best_margin:
                    best_coords[j] = x
                    best_margin, best_err = fx, ex
            improved = cycle_margin - best_margin > cycle_err + best_err
        return best_coords, evals

    best_coords, evals = explore() if dims else ([], 1)
    report = report_at(best_coords, tol)
    return SearchResult(
        best_params=assemble(best_coords),
        best_margin=math.inf if report.margin is None else report.margin,
        report=report,
        evals=evals,
    )
