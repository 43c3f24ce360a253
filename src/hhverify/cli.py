"""Command line front end.

Subcommands:
    check     verify one or more inequalities at a single parameter point
    chain     evaluate a refinement chain term by term
    classify  sampling-based class membership, no inequality verification
    sweep     verify inequalities over cartesian parameter grids
    search    minimize an inequality margin over a parameter box

Exit codes: 0 when every verdict holds (classify: membership passed), 1 on
any violation (classify: membership failed), 2 for usage and validation
errors, 3 when some verdict is inconclusive or an output path cannot be
written.

Reports serialize with %.17g floats and a fixed key order, so identical
inputs produce byte-identical JSON and CSV across runs. ``_render``
renders a command's reports in one pass: each report's four numbers go
through one %.17g format that feeds both its JSON object and its CSV row,
each made from a % template. A point's text (a, b, alpha, m and the
family) is made once for each run of reports that share it, and each
string cell is escaped for JSON by ``json.dumps`` and quoted by
``csv.writer``'s rules once.
``check`` and ``sweep`` write their reports through one ``_emit_reports``.
The generic recursive encoder ``_json_value`` serves only the payloads
that are not reports (classify, chain terms, search points).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

# chain_dr1 and chain_dr2 are unused here; the benchmark's tracer (perfbench/tracer.py) wraps these names
from .bounds import VARIANTS, ChainTerm, chain_dr1, chain_dr2
from .classify import DEFAULT_SEED, MAX_GRID_N, ClassParams, SampleEvaluationError, check_alpha_m_log_convex
from .funcspec import (
    EvaluationError,
    ExprSyntaxError,
    FamilyError,
    FamilySpec,
    FunctionExpr,
    family_instantiate,
    parse,
    registered_families,
)
from .quadrature import IntegrandError, Interval
from .verify import (
    CHAIN_THEOREMS,
    HYP_PASS,
    INCONCLUSIVE,
    THEOREMS,
    VIOLATED,
    InequalityReport,
    ReportParams,
    SearchResult,
    SweepSummary,
    _require_theorem,
    search_min_margin,
    sweep,
    verify_theorem,
    verify_theorems,
)

__all__ = [
    "EXIT_OK",
    "EXIT_VIOLATED",
    "EXIT_USAGE",
    "EXIT_INCONCLUSIVE",
    "report_from_dict",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# The most points one ``lo:hi:n`` grid may ask for; the list is built eagerly.
MAX_GRID_POINTS = 10_000


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# serialization


def _fmt_float(value: float) -> str:
    return "%.17g" % value


# json.dumps(text, ensure_ascii=False), with its encoder built once
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{_json_string(key)}:{_json_value(item)}" for key, item in value.items()) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def report_from_dict(data: Mapping) -> InequalityReport:
    """Rebuild a report from its JSON form (diagnostics are not serialized)."""
    params = data["params"]
    fam = params.get("family_params")
    family = None if fam is None else tuple(sorted((str(k), float(v)) for k, v in fam.items()))

    def opt(key: str) -> Optional[float]:
        return None if data[key] is None else float(data[key])

    return InequalityReport(
        theorem=str(data["theorem"]),
        variant=str(data["variant"]),
        params=ReportParams(
            float(params["a"]), float(params["b"]), float(params["alpha"]), float(params["m"]), family
        ),
        hypothesis=str(data["hypothesis"]),
        lhs=opt("lhs"),
        rhs=opt("rhs"),
        margin=opt("margin"),
        quad_err=float(data["quad_err"]),
        verdict=str(data["verdict"]),
    )


_CSV_HEADER = "theorem,variant,a,b,alpha,m,family_params,lhs,rhs,margin,quad_err,hypothesis,verdict\n"


def _family_cell(params: ReportParams) -> str:
    if params.family is None:
        return ""
    return ";".join(f"{name}={_fmt_float(value)}" for name, value in params.family)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other cells of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


_REPORT_JSON = (
    '{"theorem":%s,"variant":%s,"params":%s,"hypothesis":%s,'
    '"lhs":%s,"rhs":%s,"margin":%s,"quad_err":%s,"verdict":%s}'
)
_REPORT_CSV = "%s,%s,%s,%s,%s,%s\n"
_PARAMS_JSON = '{"a":%s,"b":%s,"alpha":%s,"m":%s,"family_params":%s}'
_MIN_MARGIN_JSON = '{"value":%s,"theorem":%s,"variant":%s,"params":%s}'


def _numbers(values: tuple) -> tuple[str, str]:
    """The JSON and CSV text of four numbers, each formatted once, joined by commas.

    Four finite plain floats, the usual case, take one ``%`` format and
    share their text. Each of the rest, and of finite floats whose sum
    overflows, is ``_json_value`` in JSON and ``%.17g`` in CSV, or empty for
    None. No number's text has a comma, so each splits back.
    """
    w, x, y, z = values
    if w.__class__ is x.__class__ is y.__class__ is z.__class__ is float and math.isfinite(w + x + y + z):
        text = "%.17g,%.17g,%.17g,%.17g" % values
        return text, text
    return ",".join(map(_json_value, values)), ",".join("" if v is None else _fmt_float(v) for v in values)


class _StringText(dict):
    """str -> (its JSON string literal, its CSV cell), each made on first use."""

    def __missing__(self, text: str) -> tuple[str, str]:
        out = self[text] = (_json_string(text), _csv_cell(text))
        return out


def _point_text(params: ReportParams, family: tuple[str, str]) -> tuple[str, str]:
    """A point's JSON object and its joined CSV cells a, b, alpha, m and family."""
    json_text, csv_text = _numbers((params.a, params.b, params.alpha, params.m))
    return _PARAMS_JSON % (*json_text.split(","), family[0]), f"{csv_text},{family[1]}"


def _family_text(params: ReportParams) -> tuple[str, str]:
    """The JSON object and CSV cell of a point's family parameters."""
    return _json_value(None if params.family is None else dict(params.family)), _csv_cell(_family_cell(params))


def _render(
    reports: Iterable[InequalityReport], want_json: bool = True, want_csv: bool = True
) -> tuple[str, str]:
    """The reports' JSON objects joined by commas, and their CSV text with its header.

    Each object has the keys theorem, variant, params, hypothesis, lhs,
    rhs, margin, quad_err and verdict, in this order, as ``_json_value``
    would encode them; each row is what ``csv.writer`` would write. Both
    come from ``%`` templates, and each report's numbers go through
    ``_numbers`` once and feed both outputs. A point's text is made again
    only when a report's params are not the previous report's object, and
    its family text only when the family tuple is not: verify gives every
    theorem at a point one ReportParams, and every point of a family member
    one tuple of pairs. Identity rather than equality, since 0.0 == -0.0
    but the two print differently. An output not wanted is empty.
    """
    strings = _StringText()
    objects: list[str] = []
    rows = [_CSV_HEADER] if want_csv else []
    params = family = point = family_text = None
    for r in reports:
        if r.params is not params:
            params = r.params
            if family_text is None or params.family is not family:
                family, family_text = params.family, _family_text(params)
            point = _point_text(params, family_text)
        json_numbers, csv_numbers = _numbers((r.lhs, r.rhs, r.margin, r.quad_err))
        theorem, variant, hypothesis, verdict = (
            strings[r.theorem], strings[r.variant], strings[r.hypothesis], strings[r.verdict]
        )
        if want_json:
            objects.append(_REPORT_JSON % (
                theorem[0], variant[0], point[0], hypothesis[0], *json_numbers.split(","), verdict[0]
            ))
        if want_csv:
            rows.append(_REPORT_CSV % (theorem[1], variant[1], point[1], csv_numbers, hypothesis[1], verdict[1]))
    json_text = ",".join(objects)
    del objects  # freed before the CSV is joined
    return json_text, "".join(rows)


def _summary_json(summary: SweepSummary, objects: str) -> str:
    """The JSON ``sweep --json`` writes: the reports' joined ``objects``, then the minimum margin."""
    best = summary.min_margin
    if best is None:
        best_json = "null"
    else:
        best_json = _MIN_MARGIN_JSON % (
            _json_value(best.margin), _json_string(best.theorem), _json_string(best.variant),
            _point_text(best.params, _family_text(best.params))[0],
        )
    return '{"reports":[%s],"min_margin":%s}' % (objects, best_json)


def _emit(text: str, destination: str) -> None:
    # the newline is written apart, so the text is not copied to add it
    newline = "" if text.endswith("\n") else "\n"
    if destination == "-":
        sys.stdout.write(text)
        sys.stdout.write(newline)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(newline)


# ---------------------------------------------------------------------------
# tables


def _format_table(rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows
    )


def _g12(value: Optional[float]) -> str:
    return "-" if value is None else "%.12g" % value


def _report_rows(reports: Sequence[InequalityReport], with_params: bool) -> str:
    if with_params:
        rows = [["theorem", "variant", "family", "a", "b", "alpha", "m", "hypothesis", "verdict", "margin"]]
        for r in reports:
            rows.append(
                [
                    r.theorem, r.variant, _family_cell(r.params) or "-",
                    "%.6g" % r.params.a, "%.6g" % r.params.b,
                    "%.6g" % r.params.alpha, "%.6g" % r.params.m,
                    r.hypothesis, r.verdict, _g12(r.margin),
                ]
            )
    else:
        rows = [["theorem", "variant", "hypothesis", "verdict", "lhs", "rhs", "margin", "quad_err"]]
        for r in reports:
            rows.append(
                [
                    r.theorem, r.variant, r.hypothesis, r.verdict,
                    _g12(r.lhs), _g12(r.rhs), _g12(r.margin), _g12(r.quad_err),
                ]
            )
    lines = [_format_table(rows)]
    for r in reports:
        if r.diagnostics:
            lines.append(f"note ({r.theorem}): {r.diagnostics}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument helpers


def _resolve_seed(cli_seed: Optional[int]) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("HH_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise _CliError(f"HH_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


_Value = TypeVar("_Value")


def _parse_params(items: Sequence[str], convert: Callable[[str], _Value], option: str = "--param") -> dict[str, _Value]:
    """``option``'s NAME=VALUE items; each name is checked before ``convert`` reads its value."""
    out: dict[str, _Value] = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise _CliError(f"{option} expects NAME=VALUE, got {item!r}")
        if name in out:
            raise _CliError(f"duplicate {option} {name!r}")
        out[name] = convert(value)
    return out


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _CliError(f"grid must be 'lo:hi:n', a value, or a comma list, got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
        if not 1 <= n <= MAX_GRID_POINTS:
            raise _CliError(f"grid count must lie in [1, {MAX_GRID_POINTS}], got {n}")
        if n == 1:
            return [lo]
        values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
        values[-1] = hi
        return values
    return [float(part) for part in text.split(",")]


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _CliError(f"range must be 'lo:hi', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_theorems(items: Sequence[str]) -> list[str]:
    names: list[str] = []
    for item in items:
        names.extend(part for part in (s.strip() for s in item.split(",")) if part)
    if not names:
        raise _CliError("at least one --theorem is required")
    for name in names:
        _require_theorem(name)
    return names


def _resolve_function(args) -> tuple[FunctionExpr, Optional[FamilySpec]]:
    if args.f is not None and args.family is not None:
        raise _CliError("give either --f or --family, not both")
    if args.f is not None:
        if args.param:
            raise _CliError("--param only applies with --family")
        return parse(args.f), None
    if args.family is not None:
        spec = FamilySpec(args.family, _parse_params(args.param, float))
        return family_instantiate(spec), spec
    raise _CliError("a function is required: --f EXPR or --family NAME --param NAME=VALUE")


def _exit_code(reports: Sequence[InequalityReport]) -> int:
    verdicts = {r.verdict for r in reports}
    if VIOLATED in verdicts:
        return EXIT_VIOLATED
    if INCONCLUSIVE in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _check_outputs(args) -> None:
    """Refuse ``--json`` and ``--csv`` naming one file, where the second write would replace the first."""
    paths = [path for path in (args.json, args.csv) if path not in (None, "-")]
    if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise _CliError(f"--json and --csv name the same file: {args.json!r} and {args.csv!r}")


def _emit_reports(args, reports: Sequence[InequalityReport], wrap_json: Callable[[str], str]) -> bool:
    """Write ``--json`` (the joined report objects through ``wrap_json``) and ``--csv``.

    Both outputs come from one ``_render`` pass. False when neither was asked for.
    """
    want_json, want_csv = args.json is not None, args.csv is not None
    if not (want_json or want_csv):
        return False
    json_text, csv_text = _render(reports, want_json, want_csv)
    if want_json:
        json_text = wrap_json(json_text)  # rebound, so the unwrapped text is freed before the write
        _emit(json_text, args.json)
    if want_csv:
        _emit(csv_text, args.csv)
    return True


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check(args) -> int:
    _check_outputs(args)
    f, family = _resolve_function(args)
    theorems = _parse_theorems(args.theorem)
    seed = _resolve_seed(args.seed)
    iv = Interval(args.a, args.b)
    reports = verify_theorems(
        theorems, f, iv, m=args.m, alpha=args.alpha, variant=args.variant, tol=args.tol,
        check_hypothesis=args.hypothesis == "on", grid_n=args.grid_n, tol_rel=args.tol_rel,
        seed=seed, family=family,
    )
    if not _emit_reports(args, reports, lambda objects: objects if len(reports) == 1 else "[%s]" % objects):
        print(_report_rows(reports, with_params=False))
    return _exit_code(reports)


def _chain_json(theorem: str, terms: Sequence[ChainTerm], report: InequalityReport) -> str:
    return '{"theorem":%s,"terms":%s,"report":%s}' % (
        _json_string(theorem),
        _json_value([{"label": t.label, "value": t.value, "err_est": t.err_est} for t in terms]),
        _render([report], want_csv=False)[0],
    )


def _cmd_chain(args) -> int:
    f, family = _resolve_function(args)
    seed = _resolve_seed(args.seed)
    iv = Interval(args.a, args.b)
    report = verify_theorem(
        args.theorem, f, iv, tol=args.tol, check_hypothesis=args.hypothesis == "on",
        grid_n=args.grid_n, tol_rel=args.tol_rel, seed=seed, family=family,
    )
    listed = report
    if args.hypothesis == "on" and report.hypothesis != HYP_PASS:
        # The class check kept the driver from evaluating the chain; the
        # table still lists its terms, from the same chain run ungated.
        listed = verify_theorem(args.theorem, f, iv, tol=args.tol, check_hypothesis=False, family=family)
    terms = listed.terms
    if not terms:
        # the driver evaluated the chain and it raised; the diagnostics hold the error
        raise _CliError(listed.diagnostics, EXIT_INCONCLUSIVE)
    if args.json is not None:
        _emit(_chain_json(args.theorem, terms, report), args.json)
    else:
        rows = [["term", "value", "err_est"]]
        rows.extend([t.label, _g12(t.value), _g12(t.err_est)] for t in terms)
        print(_format_table(rows))
        print(f"verdict: {report.verdict} (margin {_g12(report.margin)}, {report.diagnostics})")
    return _exit_code([report])


def _cmd_classify(args) -> int:
    f, _family = _resolve_function(args)
    seed = _resolve_seed(args.seed)
    params = ClassParams(m=args.m, alpha=args.alpha)
    try:
        report = check_alpha_m_log_convex(
            f, args.domain_upper, params, grid_n=args.grid_n, tol_rel=args.tol_rel, seed=seed
        )
    except SampleEvaluationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    worst = None
    if report.worst_violation is not None:
        w = report.worst_violation
        worst = {"x": w.x, "y": w.y, "t": w.t, "lhs": w.lhs, "rhs": w.rhs, "deficit": w.deficit}
    payload = {
        "verdict": report.verdict,
        "samples": report.samples,
        "m": args.m,
        "alpha": args.alpha,
        "domain_upper": args.domain_upper,
        "worst_violation": worst,
    }
    if args.json is not None:
        _emit(_json_value(payload), args.json)
    else:
        print(f"verdict: {report.verdict} (samples={report.samples}, m={args.m:g}, alpha={args.alpha:g})")
        if worst is not None:
            print(
                "worst violation: x=%.12g y=%.12g t=%.12g lhs=%.12g rhs=%.12g deficit=%.12g"
                % (worst["x"], worst["y"], worst["t"], worst["lhs"], worst["rhs"], worst["deficit"])
            )
    return EXIT_OK if report.verdict == "pass" else EXIT_VIOLATED


def _cmd_sweep(args) -> int:
    _check_outputs(args)
    theorems = _parse_theorems(args.theorem)
    seed = _resolve_seed(args.seed)
    summary = sweep(
        args.family,
        _parse_params(args.param, _parse_grid),
        _parse_grid(args.a),
        _parse_grid(args.b),
        _parse_grid(args.m),
        _parse_grid(args.alpha),
        theorems,
        variant=args.variant,
        tol=args.tol,
        hypothesis=args.hypothesis,
        grid_n=args.grid_n,
        tol_rel=args.tol_rel,
        seed=seed,
    )
    if not _emit_reports(args, summary.reports, functools.partial(_summary_json, summary)):
        if summary.reports:
            print(_report_rows(summary.reports, with_params=True))
        counts = "  ".join(f"{verdict}: {count}" for verdict, count in summary.counts.items())
        print(f"reports: {len(summary.reports)}  {counts}")
        if summary.min_margin is not None:
            mm = summary.min_margin
            p = mm.params
            print(
                "min margin: %.12g (%s, a=%.6g b=%.6g alpha=%.6g m=%.6g%s)"
                % (mm.margin, mm.theorem, p.a, p.b, p.alpha, p.m,
                   f", {_family_cell(p)}" if p.family else "")
            )
    return _exit_code(summary.reports)


def _search_json(result: SearchResult) -> str:
    return '{"best_params":%s,"best_margin":%s,"evals":%s,"report":%s}' % (
        _json_value({name: result.best_params[name] for name in sorted(result.best_params)}),
        _json_value(result.best_margin),
        _json_value(result.evals),
        _render([result.report], want_csv=False)[0],
    )


def _cmd_search(args) -> int:
    seed = _resolve_seed(args.seed)
    result = search_min_margin(
        args.family,
        _parse_params(args.range, _parse_range, "--range"),
        args.theorem,
        variant=args.variant,
        budget=args.budget,
        tol=args.tol,
        fixed=_parse_params(args.param, float),
        seed=seed,
    )
    if args.json is not None:
        _emit(_search_json(result), args.json)
    else:
        point = "  ".join(f"{name}={result.best_params[name]:.12g}" for name in sorted(result.best_params))
        margin = "%.12g" % result.best_margin if math.isfinite(result.best_margin) else "none"
        print(f"best margin: {margin} after {result.evals} evaluations")
        print(f"best point: {point}")
        print(_report_rows([result.report], with_params=False))
    return _exit_code([result.report])


# ---------------------------------------------------------------------------
# parser assembly


def _add_function_options(p: argparse.ArgumentParser, param_help: str) -> None:
    p.add_argument("--f", metavar="EXPR", help="function of x, e.g. 'exp(2*x)' or 'x^2+1'")
    p.add_argument("--family", choices=sorted(registered_families()), help="named parametric family")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE", help=param_help)


def _add_sampling_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-n", type=int, default=33,
                   help=f"membership grid resolution per axis, 2 to {MAX_GRID_N} (default 33)")
    p.add_argument("--tol-rel", type=float, default=1e-9, help="membership violation tolerance (default 1e-9)")
    p.add_argument("--seed", type=int, default=None, help="sampling seed; overrides HH_SEED (default 0x5EED)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves it unchanged: each call fills a fresh namespace, and the
    ``append`` options copy their default list before appending to it.
    """
    parser = argparse.ArgumentParser(
        prog="hhverify",
        description="Numerical verifier for integral-mean inequalities of log-convex type functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    decided = (
        "decided exactly where f reads as c*exp(k*x): exp of a + k*x, a constant, or products and quotients "
        "of these, e.g. '2*exp(x)/exp(-x)'; --grid-n and --seed do not matter there; sampled elsewhere"
    )
    gate_help = "check class membership before verifying (default on); " + decided

    check = sub.add_parser("check", help="verify inequalities at one parameter point")
    _add_function_options(check, "family parameter, e.g. k=2 (repeatable)")
    check.add_argument("--theorem", action="append", required=True, metavar="NAME",
                       help=f"one of {', '.join(THEOREMS)}; comma lists and repeats allowed")
    check.add_argument("--variant", choices=VARIANTS, default="corrected")
    check.add_argument("--a", type=float, default=0.0, help="interval left endpoint (default 0)")
    check.add_argument("--b", type=float, default=1.0, help="interval right endpoint (default 1)")
    check.add_argument("--m", type=float, default=1.0)
    check.add_argument("--alpha", type=float, default=1.0)
    check.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance (default 1e-10)")
    check.add_argument("--hypothesis", choices=("on", "off"), default="on", help=gate_help)
    _add_sampling_options(check)
    check.add_argument("--json", metavar="PATH|-", help="write the report(s) as JSON")
    check.add_argument("--csv", metavar="PATH|-", help="write the report(s) as CSV")
    check.set_defaults(handler=_cmd_check)

    chain = sub.add_parser("chain", help="evaluate a refinement chain term by term")
    _add_function_options(chain, "family parameter, e.g. k=2 (repeatable)")
    chain.add_argument("--theorem", choices=CHAIN_THEOREMS, required=True)
    chain.add_argument("--a", type=float, default=0.0)
    chain.add_argument("--b", type=float, default=1.0)
    chain.add_argument("--tol", type=float, default=1e-10)
    chain.add_argument("--hypothesis", choices=("on", "off"), default="on", help=gate_help)
    _add_sampling_options(chain)
    chain.add_argument("--json", metavar="PATH|-")
    chain.set_defaults(handler=_cmd_chain)

    classify = sub.add_parser("classify", help="check class membership only")
    _add_function_options(classify, "family parameter, e.g. c=0.5 (repeatable)")
    classify.add_argument("--m", type=float, default=1.0)
    classify.add_argument("--alpha", type=float, default=1.0)
    classify.add_argument("--domain-upper", type=float, required=True,
                          help="membership is sampled on [0, this]")
    _add_sampling_options(classify)
    classify.add_argument("--json", metavar="PATH|-")
    classify.set_defaults(handler=_cmd_classify)

    swp = sub.add_parser("sweep", help="verify inequalities over parameter grids")
    swp.add_argument("--family", choices=sorted(registered_families()), required=True)
    swp.add_argument("--param", action="append", default=[], metavar="NAME=GRID",
                     help="family parameter grid: 'lo:hi:n', a value, or a comma list (repeatable)")
    swp.add_argument("--theorem", action="append", required=True, metavar="NAME")
    swp.add_argument("--variant", choices=VARIANTS, default="corrected")
    swp.add_argument("--a", default="0", metavar="GRID", help="grid for a (default 0)")
    swp.add_argument("--b", default="1", metavar="GRID", help="grid for b (default 1)")
    swp.add_argument("--m", default="1", metavar="GRID", help="grid for m (default 1)")
    swp.add_argument("--alpha", default="1", metavar="GRID", help="grid for alpha (default 1)")
    swp.add_argument("--tol", type=float, default=1e-10)
    swp.add_argument("--hypothesis", choices=("off", "once", "per-point"), default="off",
                     help="check class membership per point, once per family member, or not at all "
                          "(default off); " + decided)
    _add_sampling_options(swp)
    swp.add_argument("--json", metavar="PATH|-")
    swp.add_argument("--csv", metavar="PATH|-")
    swp.set_defaults(handler=_cmd_sweep)

    search = sub.add_parser("search", help="minimize an inequality margin over a box")
    search.add_argument("--family", choices=sorted(registered_families()), required=True)
    search.add_argument("--range", action="append", default=[], metavar="NAME=LO:HI",
                        help="search range for a parameter (family names plus a, b, alpha, m)")
    search.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="pin a parameter to a constant (repeatable)")
    search.add_argument("--theorem", choices=THEOREMS, required=True)
    search.add_argument("--variant", choices=VARIANTS, default="corrected")
    search.add_argument("--budget", type=int, default=200, help="total point evaluations (default 200)")
    search.add_argument("--tol", type=float, default=1e-10,
                        help="quadrature tolerance of the reported point (default 1e-10); points are "
                             "ranked at max(tol, 1e-6), so margins closer than that cannot be told apart")
    search.add_argument("--seed", type=int, default=None)
    search.add_argument("--json", metavar="PATH|-")
    search.set_defaults(handler=_cmd_search)

    return parser


def _attach_expressions(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--f EXPR`` as ``--f=EXPR``.

    argparse takes a separate value that starts with a minus sign, such as
    ``-x+3``, for an option; attached with ``=`` it is always the value. A
    following long option (``--f --json``) is left alone, so a missing
    expression is still reported as one.
    """
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--f" and not out[i + 1].startswith("--"):
            out[i:i + 2] = [f"--f={out[i + 1]}"]
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run a subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_expressions(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits with 0 after --help and 2 on a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except (ExprSyntaxError, FamilyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, IntegrandError, SampleEvaluationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


def main() -> None:
    sys.exit(run())
