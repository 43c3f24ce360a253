"""Benchmark workloads: CLI requests generated from a seed, and checks on their outputs.

Each workload is a fixed-shape list of ``hhverify`` command lines. The
benchmark sends them one at a time through ``hhverify.cli.run`` (a closed
loop with a single client); the program only ever sees the argument lists
built here. Why each workload exists:

* ``gated_sweep`` -- the throughput path. The 62,560-report gated acceptance
  sweep as 13 ``sweep --hypothesis once`` calls with JSON and CSV output, one
  per family member, so each request is short enough for its fastest repeat
  to dodge the shared machine's slow spells (see ``worker.best_per_request``).
  Quadrature and integral reuse do most of the work, serialization writes
  about 23 MB, and the classifier runs only 92 times.
* ``point_checks`` -- the interactive path. 200 single-point requests, 160
  ``check`` (five theorems, hypothesis on) and 40 ``chain --theorem dr2``.
  Class checks dominate; quadrature is small and output is tiny.
* ``search`` -- quadrature and closed-form bounds with no reuse. Five
  ``search`` hunts of budget 1,500; every point builds a fresh function and
  checks one theorem, with no class checks and almost no serialization.
  ``poly_shift`` (x^p + q, p in [1, 3]) near x = 0 forces deep adaptive
  refinement. Below p = 1 some seeds add a refinement cycle to a hunt and
  the work per seed would no longer be the same.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from hhverify.cli import report_from_dict
from hhverify.verify import replay_verdict

WORKLOADS = ("gated_sweep", "point_checks", "search")
DEFAULT_SEED = 0

GATE_THEOREMS = "eq4,eq11,eq22,eq31,eq42"
GRID17 = "0:2:17"  # a and b grids of the acceptance sweep: 136 points with a < b
INTERVALS_GRID17 = 136

# (family, member grids at the default seed, m grid, alpha grid)
ACCEPTANCE_SWEEPS = (
    ("const", {"c": (0.2, 0.4, 0.6, 0.8, 1.0)}, "0.25,0.5,0.75,1", "0.5,0.75,1"),
    ("exp_linear", {"k": (0.5, 1.0, 1.5, 2.0)}, "0.25,0.5,0.75,1", "1"),
    ("exp_affine", {"c": (0.25, 0.75), "k": (0.5, 1.5)}, "0.25,0.5,0.75,1", "1"),
)
# Other seeds draw members from these ranges, where every member belongs to
# its class on [0, 2/m], so every gated report must hold.
MEMBER_RANGES = {"c": (0.2, 1.0), "k": (0.5, 2.0)}

POINT_REQUESTS = 200
POINT_CHAINS = 40
POINT_FAMILIES = {
    "const": {"c": (0.2, 2.0)},
    "exp_linear": {"k": (-2.0, 2.0)},
    "exp_affine": {"c": (0.2, 2.0), "k": (-2.0, 2.0)},
    "poly_shift": {"p": (0.5, 3.0), "q": (0.1, 2.0)},
}

SEARCH_BUDGET = 1500
# (family, ranges, theorem, variant, known best margin)
SEARCH_HUNTS = (
    ("const", ("c=0.2:1",), "eq22", "printed", -0.25),
    ("poly_shift", ("p=1:3", "q=0.05:1"), "dr2", "corrected", None),
    ("poly_shift", ("p=1:3", "q=0.05:1", "m=0.5:1"), "eq11", "corrected", None),
    ("poly_shift", ("p=1:3", "q=0.05:1", "alpha=0.5:1", "m=0.5:1"), "eq42", "printed", None),
    ("exp_affine", ("c=0.2:1", "k=0.5:2", "alpha=0.25:1", "m=0.25:1"), "eq31", "corrected", None),
)
KNOWN_MARGIN_ABS = 1e-12


@dataclass(frozen=True)
class Request:
    """One CLI request and what its output must satisfy."""

    kind: str  # "sweep" | "check" | "chain" | "search"
    argv: tuple[str, ...]
    json_path: str
    csv_path: Optional[str] = None
    expected_reports: Optional[int] = None  # sweep: exact report count
    known_margin: Optional[float] = None  # search: best margin to reach


@dataclass
class Outcome:
    """The checked result of one request."""

    failures: list[str] = field(default_factory=list)
    verdicts: Counter = field(default_factory=Counter)
    units: int = 0  # reports emitted, or search points evaluated
    bytes_out: int = 0
    digest: str = ""  # of the output files, to compare reruns byte for byte
    exit_code: Optional[int] = None


def build(workload: str, seed: int, outdir: str) -> list[Request]:
    """The requests of ``workload`` for ``seed``; outputs go under ``outdir``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    rng = random.Random(seed)
    make = {"gated_sweep": _gated_sweep, "point_checks": _point_checks, "search": _search}[workload]
    return make(rng, seed, outdir)


def _num(value: float) -> str:
    return repr(float(value))


def _stratified(rng: random.Random, bounds: tuple[float, float], n: int) -> tuple[float, ...]:
    """One uniform draw from each of n equal slices of ``bounds``, in increasing order.

    Members stay spread over the whole range on every seed. Integrand evals
    per member jump with the member's value, so this keeps the seed-to-seed
    change in total evals near 4% (one common offset for all slices, tried
    first, let it reach 20%).
    """
    lo, hi = bounds
    return tuple(lo + (i + rng.random()) * (hi - lo) / n for i in range(n))


def _gated_sweep(rng: random.Random, seed: int, outdir: str) -> list[Request]:
    requests = []
    for family, grids, ms, alphas in ACCEPTANCE_SWEEPS:
        if seed != DEFAULT_SEED:
            grids = {name: _stratified(rng, MEMBER_RANGES[name], len(values)) for name, values in grids.items()}
        points = INTERVALS_GRID17 * len(ms.split(",")) * len(alphas.split(","))
        for member in itertools.product(*grids.values()):
            i = len(requests)
            json_path = os.path.join(outdir, f"sweep{i}.json")
            csv_path = os.path.join(outdir, f"sweep{i}.csv")
            argv = ["sweep", "--family", family]
            for name, value in zip(grids, member):
                argv += ["--param", f"{name}={_num(value)}"]
            argv += [
                "--a", GRID17, "--b", GRID17, "--m", ms, "--alpha", alphas,
                "--theorem", GATE_THEOREMS, "--variant", "corrected", "--hypothesis", "once",
                "--json", json_path, "--csv", csv_path,
            ]
            requests.append(Request(
                "sweep", tuple(argv), json_path, csv_path,
                expected_reports=points * len(GATE_THEOREMS.split(",")),
            ))
    return requests


def _family_args(rng: random.Random, family: str) -> list[str]:
    argv = ["--family", family]
    for name, (lo, hi) in POINT_FAMILIES[family].items():
        argv += ["--param", f"{name}={_num(rng.uniform(lo, hi))}"]
    return argv


def _point_checks(rng: random.Random, seed: int, outdir: str) -> list[Request]:
    # Equal shares of each family and variant on every seed, so the seed moves
    # parameters and order but not the request mix.
    checks = POINT_REQUESTS - POINT_CHAINS
    kinds = ["chain"] * POINT_CHAINS + ["check"] * checks
    families = sorted(POINT_FAMILIES) * (POINT_REQUESTS // len(POINT_FAMILIES))
    variants = ["printed", "corrected"] * (checks // 2)
    for items in (kinds, families, variants):
        rng.shuffle(items)
    requests = []
    for i, (kind, family) in enumerate(zip(kinds, families)):
        a = rng.uniform(0.0, 1.5)
        b = rng.uniform(a + 0.1, 2.0)
        argv = [kind] + _family_args(rng, family) + ["--a", _num(a), "--b", _num(b)]
        if kind == "check":
            argv += [
                "--theorem", GATE_THEOREMS, "--variant", variants.pop(),
                "--m", _num(rng.uniform(0.25, 1.0)), "--alpha", _num(rng.uniform(0.25, 1.0)),
            ]
        else:
            argv += ["--theorem", "dr2"]
        json_path = os.path.join(outdir, f"point{i}.json")
        argv += ["--hypothesis", "on", "--grid-n", "33", "--json", json_path]
        requests.append(Request(kind, tuple(argv), json_path))
    return requests


def _search(rng: random.Random, seed: int, outdir: str) -> list[Request]:
    requests = []
    for i, (family, ranges, theorem, variant, known) in enumerate(SEARCH_HUNTS):
        json_path = os.path.join(outdir, f"search{i}.json")
        argv = ["search", "--family", family]
        for item in ranges:
            argv += ["--range", item]
        argv += [
            "--theorem", theorem, "--variant", variant, "--budget", str(SEARCH_BUDGET),
            "--seed", str(seed), "--json", json_path,
        ]
        requests.append(Request("search", tuple(argv), json_path, known_margin=known))
    return requests


# ---------------------------------------------------------------------------
# checks


def expected_exit(verdicts) -> int:
    """The CLI exit code its documentation promises for these verdicts."""
    verdicts = set(verdicts)
    if "violated" in verdicts:
        return 1
    if "inconclusive" in verdicts:
        return 3
    return 0


def report_failures(data: dict, gated_holds: bool = False) -> list[str]:
    """Why one JSON report is wrong, or [] if it is consistent.

    Every report must replay: its verdict must equal ``replay_verdict`` on
    its own numbers. A corrected-variant report whose hypothesis passed
    must not be violated, and with ``gated_holds`` every report must hold.
    """
    try:
        report = report_from_dict(data)
        replayed = replay_verdict(report.lhs, report.rhs, report.margin, report.quad_err)
    except (KeyError, TypeError, ValueError) as err:
        return [f"unreadable report {data!r}: {err}"]
    failures = []
    where = f"{report.theorem}/{report.variant} at {data.get('params')}"
    if replayed != report.verdict:
        failures.append(f"{where}: verdict {report.verdict} but replays as {replayed}")
    if report.variant == "corrected" and report.hypothesis == "pass" and report.verdict == "violated":
        failures.append(f"{where}: corrected bound violated with its hypothesis passed")
    if gated_holds and report.verdict != "holds":
        failures.append(f"{where}: gated sweep report is {report.verdict}, expected holds")
    return failures


def _read_outputs(request: Request) -> tuple[bytes, bytes]:
    with open(request.json_path, "rb") as fh:
        json_bytes = fh.read()
    csv_bytes = b""
    if request.csv_path is not None:
        with open(request.csv_path, "rb") as fh:
            csv_bytes = fh.read()
    return json_bytes, csv_bytes


def _reports_in(request: Request, payload, csv_bytes: bytes, out: Outcome) -> list:
    """The report dicts in one request's output, after checking its known answers into ``out``."""
    if request.kind == "sweep":
        reports = payload["reports"]
        out.units = len(reports)
        if len(reports) != request.expected_reports:
            out.failures.append(f"{len(reports)} reports, expected {request.expected_reports}")
        if csv_bytes.count(b"\n") != len(reports) + 1:
            out.failures.append("CSV row count differs from the JSON report count")
    elif request.kind == "check":
        reports = payload if isinstance(payload, list) else [payload]
        out.units = len(reports)
    elif request.kind == "chain":
        reports = [payload["report"]]
        out.units = 1
        if len(payload["terms"]) != 6:
            out.failures.append(f"dr2 chain has {len(payload['terms'])} terms, expected 6")
    else:
        reports = [payload["report"]]
        out.units = payload["evals"]
        best, margin = payload["best_margin"], reports[0]["margin"]
        if best != margin:
            out.failures.append(f"best_margin {best!r} differs from its report's margin {margin!r}")
        if request.known_margin is not None and not (
            best is not None and abs(best - request.known_margin) <= KNOWN_MARGIN_ABS
        ):
            out.failures.append(f"best margin {best!r}, expected {request.known_margin!r}")
    if not all(isinstance(data, dict) for data in reports):
        raise TypeError("a report is not a JSON object")
    return reports


def check(
    request: Request,
    exit_code: Optional[int],
    error: Optional[str],
    first: Optional[Outcome] = None,
) -> Outcome:
    """Check one request's exit code and output files against its known answers.

    ``first`` is this request's outcome in an earlier pass of the same run.
    Output is deterministic, so when the exit code and the output bytes are
    the same as then, that outcome stands; any difference is a failure.
    """
    out = Outcome()
    if error is not None:
        out.failures.append(f"raised {error}")
        return out
    try:
        json_bytes, csv_bytes = _read_outputs(request)
    except OSError as err:
        out.failures.append(f"missing output: {err}")
        return out
    out.digest = hashlib.sha256(json_bytes + b"\0" + csv_bytes).hexdigest()
    out.bytes_out = len(json_bytes) + len(csv_bytes)
    if first is not None and first.digest:
        if out.digest == first.digest and exit_code == first.exit_code:
            return first
        out.failures.append("output or exit code differs from the first pass")
    out.exit_code = exit_code
    try:
        reports = _reports_in(request, json.loads(json_bytes), csv_bytes, out)
    except (ValueError, KeyError, TypeError) as err:
        out.failures.append(f"unreadable JSON output: {err!r}")
        return out

    for data in reports:
        out.failures.extend(report_failures(data, gated_holds=request.kind == "sweep"))
        out.verdicts[data.get("verdict")] += 1
    want = expected_exit(out.verdicts)
    if exit_code != want:
        out.failures.append(f"exit code {exit_code}, but its verdicts call for {want}")
    return out


def failed_frac(outcomes: list[Outcome]) -> float:
    """Failed requests over attempted ones (0 when none were attempted)."""
    return sum(1 for o in outcomes if o.failures) / len(outcomes) if outcomes else 0.0
