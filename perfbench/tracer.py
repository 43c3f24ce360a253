"""Outside-in tracer: wraps hhverify's public names where their callers look them up.

Nothing inside the package is edited. Each wrapped name is replaced on the
module (or class) through which the caller reaches it, e.g.
``hhverify.verify.check_alpha_m_log_convex`` because ``verify`` imports that
function by name. A missing attribute raises at install time, so a later
refactor that renames or moves a function cannot zero a metric silently.

Coarse layers record spans ``(id, parent_id, layer, name, t0, t1, leaf_s)``;
hot leaves (``FunctionExpr.evaluate`` and the means) only add to per-name
call counters and time, and charge that time to the innermost open span as
``leaf_s``. A span's self time is its duration minus its child spans minus
its leaf time (see :func:`self_times`).
"""
from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Callable, Iterable

# (owner path, attribute, layer). Owners are modules, except
# "hhverify.funcspec.FunctionExpr", whose methods callers reach through
# instances.
SPAN_SITES = (
    ("hhverify.cli", "run", "cli"),
    ("hhverify.cli", "verify_theorem", "verify"),
    ("hhverify.cli", "sweep", "verify"),
    ("hhverify.cli", "search_min_margin", "verify"),
    ("hhverify.cli", "chain_dr1", "bounds"),
    ("hhverify.cli", "chain_dr2", "bounds"),
    ("hhverify.cli", "check_alpha_m_log_convex", "classify"),
    ("hhverify.verify", "check_alpha_m_log_convex", "classify"),
    ("hhverify.verify", "chain_dr1", "bounds"),
    ("hhverify.verify", "chain_dr2", "bounds"),
    ("hhverify.verify", "eq4_rhs", "bounds"),
    ("hhverify.verify", "eq22_rhs", "bounds"),
    ("hhverify.verify", "eq31_branches", "bounds"),
    ("hhverify.verify", "eq42_rhs", "bounds"),
    ("hhverify.quadrature", "integrate", "quadrature"),
    ("hhverify.funcspec.FunctionExpr", "evaluate_array", "funcspec"),
)

LEAF_SITES = (
    ("hhverify.funcspec.FunctionExpr", "evaluate", "funcspec"),
    ("hhverify.bounds", "logarithmic_mean", "means"),
    ("hhverify.bounds", "arithmetic_mean", "means"),
    ("hhverify.bounds", "geometric_mean", "means"),
    ("hhverify.verify", "arithmetic_mean", "means"),
)


def _resolve(path: str):
    """Import ``path`` as a module, or as ``module.Class`` for a class owner."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _observe_integrate(counts: Counter, result) -> None:
    counts["quadrature.evals"] += result.evals
    counts["quadrature.nonconverged"] += not result.converged


def _observe_classify(counts: Counter, result) -> None:
    counts["classify.samples"] += result.samples


def _observe_array(counts: Counter, result) -> None:
    counts["funcspec.array_elems"] += result.size


def _observe_reports(counts: Counter, result) -> None:
    if hasattr(result, "reports"):  # SweepSummary
        counts["verify.reports"] += len(result.reports)
    elif hasattr(result, "evals"):  # SearchResult: one report per point evaluated
        counts["verify.reports"] += result.evals
    else:  # InequalityReport
        counts["verify.reports"] += 1


_OBSERVERS = {
    "integrate": _observe_integrate,
    "check_alpha_m_log_convex": _observe_classify,
    "evaluate_array": _observe_array,
    "verify_theorem": _observe_reports,
    "sweep": _observe_reports,
    "search_min_margin": _observe_reports,
}


class Tracer:
    """Installs wrappers, records spans and leaf counters, restores originals.

    Use as a context manager; the wrappers are live only inside the block.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaves: dict[tuple[str, str], list] = {}  # (layer, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.classify_peak_bytes = 0
        self._stack: list[list] = []  # open spans: [span_id, leaf_s]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for sites, wrap in ((SPAN_SITES, self._span), (LEAF_SITES, self._leaf)):
                for path, attr, layer in sites:
                    self._patch(path, attr, wrap, layer)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, path: str, attr: str, wrap: Callable, layer: str) -> None:
        owner = _resolve(path)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            raise AttributeError(f"tracer site {path}.{attr} is missing or not callable")
        setattr(owner, attr, wrap(original, layer, attr))
        self._patches.append((owner, attr, original))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _span(self, fn: Callable, layer: str, name: str) -> Callable:
        clock, stack, spans, counts = time.perf_counter, self._stack, self.spans, self.counts
        observe = _OBSERVERS.get(name)
        track_memory = layer == "classify"

        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            if track_memory:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if track_memory:
                    self.classify_peak_bytes = max(self.classify_peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans.append((span_id, parent, layer, name, t0, t1, frame[1]))
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _leaf(self, fn: Callable, layer: str, name: str) -> Callable:
        clock, stack = time.perf_counter, self._stack
        stat = self.leaves.setdefault((layer, name), [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Self time per span id: duration minus child spans minus leaf time."""
    spans = list(spans)
    children: dict[int, float] = defaultdict(float)
    for _sid, parent, _layer, _name, t0, t1, _leaf in spans:
        if parent:
            children[parent] += t1 - t0
    return {sid: (t1 - t0) - children[sid] - leaf for sid, _p, _l, _n, t0, t1, leaf in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_out: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    ``bytes_out`` is the size of the files the CLI requests wrote, which
    the caller measures from outside.
    """
    own = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    for sid, _parent, layer, name, t0, t1, _leaf in tracer.spans:
        key = name if name in ("integrate", "evaluate_array") else layer
        calls[key] += 1
        self_s[key] += own[sid]
        incl_s[key] += t1 - t0
    leaf_calls: Counter = Counter()
    leaf_s: dict[str, float] = defaultdict(float)
    for (layer, name), (n, seconds) in tracer.leaves.items():
        key = name if name == "evaluate" else layer
        leaf_calls[key] += n
        leaf_s[key] += seconds

    c = tracer.counts
    integrals, evals = calls["integrate"], c["quadrature.evals"]
    reports = c["verify.reports"]
    cli_self = self_s["cli"]
    return {
        "quadrature.integrals": (integrals, "count"),
        "quadrature.evals": (evals, "count"),
        "quadrature.evals_per_integral": (_ratio(evals, integrals), "count"),
        "quadrature.self_s": (self_s["integrate"], "s"),
        "quadrature.us_per_eval": (1e6 * _ratio(incl_s["integrate"], evals), "us"),
        "quadrature.nonconverged": (c["quadrature.nonconverged"], "count"),
        "funcspec.evaluate_calls": (leaf_calls["evaluate"], "count"),
        "funcspec.evaluate_self_s": (leaf_s["evaluate"], "s"),
        "funcspec.ns_per_eval": (1e9 * _ratio(leaf_s["evaluate"], leaf_calls["evaluate"]), "ns"),
        "funcspec.array_calls": (calls["evaluate_array"], "count"),
        "funcspec.array_elems": (c["funcspec.array_elems"], "count"),
        "funcspec.ns_per_array_elem": (1e9 * _ratio(self_s["evaluate_array"], c["funcspec.array_elems"]), "ns"),
        "classify.calls": (calls["classify"], "count"),
        "classify.samples": (c["classify.samples"], "count"),
        "classify.self_s": (self_s["classify"], "s"),
        "classify.msamples_per_s": (1e-6 * _ratio(c["classify.samples"], incl_s["classify"]), "1e6/s"),
        "classify.peak_mb": (tracer.classify_peak_bytes / 1e6, "MB"),
        "verify.reports": (reports, "count"),
        "verify.self_s": (self_s["verify"], "s"),
        "verify.integrals_per_report": (_ratio(integrals, reports), "count"),
        "verify.class_checks_per_report": (_ratio(calls["classify"], reports), "count"),
        "bounds.calls": (calls["bounds"], "count"),
        "bounds.self_s": (self_s["bounds"], "s"),
        "bounds.us_per_call": (1e6 * _ratio(self_s["bounds"], calls["bounds"]), "us"),
        "means.calls": (leaf_calls["means"], "count"),
        "means.self_s": (leaf_s["means"], "s"),
        "cli.requests": (calls["cli"], "count"),
        "cli.self_s": (cli_self, "s"),
        "cli.bytes_out": (bytes_out, "bytes"),
        "cli.mb_per_s": (1e-6 * _ratio(bytes_out, cli_self), "MB/s"),
    }
