"""Tests of the benchmark's own logic.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""
import json
import shutil
import signal
import time
import subprocess
import sys
from pathlib import Path

import pytest

import hhverify.cli
import hhverify.quadrature
import probe
import run
import tracer
import worker
import workloads
from probe import SpeedProbe
from tracer import Tracer, layer_metrics, self_times
from workloads import Outcome, Request, check, failed_frac, report_failures

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_child_spans_and_leaf_time():
    spans = [
        (3, 2, "quadrature", "integrate", 2.0, 4.0, 0.5),
        (2, 1, "verify", "sweep", 1.0, 6.0, 1.0),
        (4, 1, "classify", "check", 7.0, 8.0, 0.0),
        (1, 0, "cli", "run", 0.0, 10.0, 0.25),
    ]
    own = self_times(spans)
    assert own == {1: 10.0 - 5.0 - 1.0 - 0.25, 2: 5.0 - 2.0 - 1.0, 3: 2.0 - 0.5, 4: 1.0}
    assert sum(own.values()) + 0.5 + 1.0 + 0.25 == pytest.approx(10.0)


def test_traced_request_counts_layers_and_restores_originals():
    original = hhverify.quadrature.integrate
    argv = ["check", "--f", "exp(x)", "--theorem", "eq4,eq22", "--hypothesis", "on", "--json", "-"]
    with Tracer() as t:
        assert hhverify.cli.run(argv) == 0
    assert hhverify.quadrature.integrate is original
    m = {name: value for name, (value, _unit) in layer_metrics(t, bytes_out=100).items()}
    assert m["cli.requests"] == 1
    assert m["verify.reports"] == 2
    assert m["quadrature.integrals"] == 2  # mean of f, and the geometric kernel
    assert m["classify.calls"] == 2  # one class check per verify_theorem call
    assert m["classify.samples"] == 2 * 2 * 33**3
    assert m["funcspec.array_calls"] == 6
    assert m["funcspec.evaluate_calls"] > m["quadrature.evals"] > 0
    assert m["bounds.calls"] == 2 and m["means.calls"] == 3
    root = [s for s in t.spans if s[1] == 0]
    assert len(root) == 1
    total_self = sum(self_times(t.spans).values()) + sum(s for _calls, s in t.leaves.values())
    assert total_self == pytest.approx(root[0][5] - root[0][4])


def test_missing_site_fails_loudly_and_unpatches(monkeypatch):
    original = hhverify.cli.run
    monkeypatch.setattr(tracer, "LEAF_SITES", tracer.LEAF_SITES + (("hhverify.bounds", "no_such_mean", "means"),))
    with pytest.raises(AttributeError, match="no_such_mean"):
        with Tracer():
            pass
    assert hhverify.cli.run is original


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(10, 0, -1)]
    assert worker.nearest_rank(values, 50) == 5.0
    assert worker.nearest_rank(values, 90) == 9.0
    assert worker.nearest_rank([float(v) for v in range(1, 201)], 90) == 180.0
    assert worker.nearest_rank([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        worker.nearest_rank([], 50)


def test_probe_window_arithmetic():
    meter = SpeedProbe()
    meter.starts = [0.0, 1.0, 1.05, 1.1, 2.0]  # the pad around a request is 0.1 s
    ref = probe.REFERENCE_S
    meter.durations = [ref, 3 * ref, 2 * ref, 0.5 * ref, 4 * ref]
    assert meter.time_inside(0.5, 1.1) == pytest.approx(5 * ref)  # probes at 1.0 and 1.05
    assert meter.time_inside(2.5, 3.0) == 0.0
    assert meter.slowdown(1.0, 1.02) == pytest.approx(2.0)  # median of 3, 2 and 0.5
    assert meter.slowdown(0.0, 0.5) == 1.0  # faster than the reference counts as calm
    assert meter.slowdown(2.5, 2.6) == pytest.approx(4.0)  # widened until it reaches the probe at 2.0
    assert SpeedProbe().slowdown(0.0, 1.0) == 1.0  # no probe ran


def test_probe_runs_on_its_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as meter:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.durations) >= 10
    assert meter.starts == sorted(meter.starts)
    assert all(d > 0 for d in meter.durations)


def test_end_to_end_takes_each_requests_fastest_reference_time():
    def plain(ref):
        return worker.Pass(False, 1.0, 1.0, [1.0, 1.0], [Outcome(units=3), Outcome(units=1)],
                           ref_latencies_s=ref, ref_cpus_s=ref, slowdowns=[1.0, 1.0])
    traced = worker.Pass(True, 0.1, 0.1, [0.01, 0.01], [])  # never counted in end-to-end times
    m = worker.end_to_end([plain([0.3, 0.2]), traced, plain([0.1, 0.4])], peak_rss_kb=2048)
    assert m["wall_s"]["value"] == pytest.approx(0.1 + 0.2)
    assert m["reports_per_s"]["value"] == pytest.approx(4 / 0.3)
    assert m["request_p50_ms"]["value"] == pytest.approx(100.0)
    assert m["request_p90_ms"]["value"] == pytest.approx(200.0)
    assert m["peak_rss_mb"] == {"value": 2.0, "unit": "MB"}


def _report(verdict, margin, variant="corrected", hypothesis="pass"):
    return {
        "theorem": "eq4", "variant": variant,
        "params": {"a": 0.0, "b": 1.0, "alpha": 1.0, "m": 1.0, "family_params": None},
        "hypothesis": hypothesis, "lhs": 1.0, "rhs": 1.0 + margin, "margin": margin,
        "quad_err": 1e-12, "verdict": verdict,
    }


def test_report_failure_rules():
    assert report_failures(_report("holds", 0.5)) == []
    assert report_failures(_report("violated", -0.5, variant="printed")) == []
    assert report_failures(_report("violated", -0.5, hypothesis="fail")) == []
    (replay,) = report_failures(_report("holds", -0.5, variant="printed"))
    assert "replays as violated" in replay
    (corrected,) = report_failures(_report("violated", -0.5))
    assert "corrected bound violated" in corrected
    (gated,) = report_failures(_report("violated", -0.5, variant="printed"), gated_holds=True)
    assert "expected holds" in gated
    assert "unreadable" in report_failures({"verdict": "holds"})[0]


def test_check_counts_exit_code_and_raise_as_failures(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps([_report("holds", 0.5), _report("violated", -0.5, variant="printed")]))
    request = Request("check", (), str(path))
    assert check(request, 1, None).failures == []
    assert check(request, 1, None).units == 2
    (wrong_exit,) = check(request, 0, None).failures
    assert "exit code 0" in wrong_exit
    assert check(request, None, "RuntimeError: boom").failures == ["raised RuntimeError: boom"]
    assert "missing output" in check(Request("check", (), str(tmp_path / "missing.json")), 0, None).failures[0]
    (tmp_path / "odd.json").write_text('{"terms": []}')
    assert "unreadable JSON" in check(Request("chain", (), str(tmp_path / "odd.json")), 0, None).failures[0]
    (tmp_path / "odd.json").write_text("[1, 2]")
    assert "unreadable JSON" in check(Request("check", (), str(tmp_path / "odd.json")), 0, None).failures[0]
    outcomes = [check(request, 1, None), check(request, 0, None), Outcome(), Outcome(failures=["x"])]
    assert failed_frac(outcomes) == 0.5
    assert failed_frac([]) == 0.0


def test_rerun_reuses_the_first_outcome_only_for_identical_output(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(_report("holds", 0.5)))
    request = Request("check", (), str(path))
    first = check(request, 0, None)
    assert first.failures == [] and first.digest
    assert check(request, 0, None, first) is first
    assert "differs from the first pass" in check(request, 3, None, first).failures[0]
    path.write_text(json.dumps(_report("holds", 0.25)))
    assert "differs from the first pass" in check(request, 0, None, first).failures[0]


def test_inputs_depend_only_on_seed(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3, "out") == workloads.build(name, 3, "out")
        assert workloads.build(name, 3, "out") != workloads.build(name, 4, "out")
    sweeps = workloads.build("gated_sweep", workloads.DEFAULT_SEED, "out")
    assert sum(r.expected_reports for r in sweeps) == 62560
    assert [a for r in sweeps[:5] for a in r.argv if a.startswith("c=")] == [f"c={c}" for c in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert sum(r.expected_reports for r in workloads.build("gated_sweep", 9, "out")) == 62560
    kinds = [r.kind for r in workloads.build("point_checks", 9, "out")]
    assert kinds.count("check") == 160 and kinds.count("chain") == 40
    assert run.WORKLOADS == workloads.WORKLOADS


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
