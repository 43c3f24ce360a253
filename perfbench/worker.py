"""Benchmark worker: one workload in one fresh, single-threaded process.

Started by ``run.py``; not meant to be run by hand. It imports the program,
builds the workload's requests from the seed and prints ``ready``. Unless
``--setup-only`` is given it then runs whole passes over the requests until
the time window is used up, checks every output, and prints one JSON line.
With ``--trace 1`` passes alternate untraced and traced; the traced ones give
the per-layer metrics, the untraced ones the baseline for the overhead.
Untraced passes run under the speed probe of ``probe.py``, and their times
are reported at its reference speed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Optional

import hhverify
import hhverify.cli
import numpy

import workloads
from probe import SpeedProbe
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

# Counts that must repeat exactly between traced passes of one run.
DETERMINISTIC = (
    "quadrature.integrals", "quadrature.evals", "quadrature.nonconverged",
    "funcspec.evaluate_calls", "funcspec.array_calls", "funcspec.array_elems",
    "classify.calls", "classify.samples", "verify.reports", "bounds.calls",
    "means.calls", "cli.requests", "cli.bytes_out",
)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    total_s: float  # including output checks
    latencies_s: list[float]  # per request, as measured less the speed probes inside it
    outcomes: list[workloads.Outcome]
    # Untraced passes: each request's wall and CPU time less the probes
    # inside it, divided by the machine's slowdown around it (see probe.py).
    ref_latencies_s: Optional[list[float]] = None
    ref_cpus_s: Optional[list[float]] = None
    slowdowns: Optional[list[float]] = None
    layers: Optional[dict] = None

    @property
    def units(self) -> int:
        return sum(o.units for o in self.outcomes)

    @property
    def verdicts(self) -> dict:
        total: dict = {}
        for o in self.outcomes:
            for verdict, n in o.verdicts.items():
                total[verdict] = total.get(verdict, 0) + n
        return dict(sorted(total.items()))


def nearest_rank(values: list[float], pct: float) -> float:
    """The nearest-rank percentile: the smallest value with pct% of values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def best_per_request(passes: list[Pass], attr: str) -> list[float]:
    """Each request's fastest time over the passes."""
    return [min(times) for times in zip(*(getattr(p, attr) for p in passes))]


def run_pass(requests: list[workloads.Request], traced: bool, first: Optional[Pass] = None) -> Pass:
    """Send every request once, then check the outputs (against ``first``'s, when given)."""
    for request in requests:
        for path in (request.json_path, request.csv_path):
            if path is not None and os.path.exists(path):
                os.remove(path)
    gc.collect()
    results: list[tuple[Optional[int], Optional[str]]] = []
    spans: list[tuple[float, float]] = []  # per request: perf_counter at start and end
    cpus: list[float] = []
    # The speed probe runs in untraced passes only: the tracer's self times
    # would otherwise count it.
    with Tracer() if traced else SpeedProbe() as meter:
        t0 = time.perf_counter()
        for request in requests:
            c0 = time.process_time()
            r0 = time.perf_counter()
            try:
                results.append((hhverify.cli.run(list(request.argv)), None))
            except Exception as err:  # a request that raises is a failed operation
                results.append((None, f"{type(err).__name__}: {err}"))
            spans.append((r0, time.perf_counter()))
            cpus.append(time.process_time() - c0)
        wall = time.perf_counter() - t0
    latencies = [end - start for start, end in spans]
    if not traced:
        probed = [meter.time_inside(start, end) for start, end in spans]
        latencies = [t - p for t, p in zip(latencies, probed)]
        cpus = [c - p for c, p in zip(cpus, probed)]
    earlier = first.outcomes if first is not None else [None] * len(requests)
    outcomes = [
        workloads.check(req, code, err, prior)
        for req, (code, err), prior in zip(requests, results, earlier)
    ]
    done = Pass(traced, wall, 0.0, latencies, outcomes)
    if traced:
        done.layers = layer_metrics(meter, sum(o.bytes_out for o in outcomes))
    else:
        done.slowdowns = [meter.slowdown(start, end) for start, end in spans]
        done.ref_latencies_s = [t / k for t, k in zip(latencies, done.slowdowns)]
        done.ref_cpus_s = [c / k for c, k in zip(cpus, done.slowdowns)]
    done.total_s = time.perf_counter() - t0
    return done


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[Pass], peak_rss_kb: int) -> dict:
    """Times are each request's fastest repeat over the passes, at the probe's reference speed."""
    plain = [p for p in passes if not p.traced]
    wall = best_per_request(plain, "ref_latencies_s")
    latencies_ms = [1e3 * s for s in wall]
    return {
        "wall_s": _metric(sum(wall), "s"),
        "cpu_s": _metric(sum(best_per_request(plain, "ref_cpus_s")), "s"),
        "reports_per_s": _metric(plain[0].units / sum(wall), "1/s"),
        "request_p50_ms": _metric(nearest_rank(latencies_ms, 50), "ms"),
        "request_p90_ms": _metric(nearest_rank(latencies_ms, 90), "ms"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(passes: list[Pass], problems: list[str]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    first = traced[0].layers
    for other in traced[1:]:
        for name in DETERMINISTIC:
            if other.layers[name] != first[name]:
                problems.append(f"{name} differs between traced passes: {first[name][0]} vs {other.layers[name][0]}")
    out = {}
    for name, (value, unit) in first.items():
        if name == "classify.peak_mb":
            value = max(p.layers[name][0] for p in traced)
        elif name not in DETERMINISTIC:
            value = median(p.layers[name][0] for p in traced)
        out[name] = _metric(value, unit)
    overhead = sum(best_per_request(traced, "latencies_s")) / sum(best_per_request(plain, "latencies_s")) - 1.0
    out["trace.overhead_frac"] = _metric(overhead, "fraction")
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if Path(hhverify.__file__).resolve().parent.parent != src:
        print(f"error: imported hhverify from {hhverify.__file__}, not from {src}", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    requests = workloads.build(args.workload, args.seed, str(outdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    passes: list[Pass] = []
    peak_rss_kb = 0
    try:
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(requests, traced, passes[0] if passes else None))
            if len(passes) == 1:
                # The program's peak, read before any output is parsed back.
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            next_s = max(p.total_s for p in passes[-2:])
            if len(passes) >= 1 + args.trace and time.perf_counter() - start + next_s > args.seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            outdir.parent.rmdir()

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [f for o in outcomes for f in o.failures]
    problems: list[str] = []
    verdict_sets = {json.dumps(p.verdicts) for p in passes}
    if len(verdict_sets) > 1:
        problems.append(f"verdict counts differ between passes: {sorted(verdict_sets)}")
    metrics = per_layer(passes, problems) if args.trace else end_to_end(passes, peak_rss_kb)
    if args.trace:
        metrics["failed_frac"] = _metric(workloads.failed_frac(outcomes), "fraction")
    result = {}
    if not args.trace:
        plain = [p for p in passes if not p.traced]
        result["fastest_wall_s"] = sum(best_per_request(plain, "latencies_s"))
        result["slowdown_quartiles"] = quantiles([k for p in plain for k in p.slowdowns], n=4)
    result.update({
        "correct": not failures and not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failures),
        "metrics": metrics,
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "verdicts": passes[0].verdicts,
        "problems": problems + failures[:20],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
