"""The hhverify benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gated_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Each workload runs in a fresh worker process with BLAS/OpenMP thread counts
pinned to 1. ``setup_s`` is the median, over several spawns, of the time from
starting a worker to its ``ready`` line (interpreter start, imports and input
generation). Every time is corrected for the shared machine's slowdown, as
measured by the speed probe in ``probe.py``. With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` a traced run prints the
per-layer metrics instead. Every
metric is printed by name and unit, followed by one JSON line, which is
always the last line of standard output.

A traced run at the default seed also compares the deterministic counts
with those recorded in ``counts_seed0.json``. Exits 2 without a result when
the program's sources are not next to the benchmark (no ``src/hhverify``).
See METRICS.md for the workloads and the definition of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from probe import spot_slowdown

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("gated_sweep", "point_checks", "search")
DEFAULT_SEED = 0
RECORDED_COUNTS = Path(__file__).resolve().parent / "counts_seed0.json"
SETUP_SPAWNS = 20  # plus the measured worker's own start
SLACK_S = 120  # beyond --seconds, for set-up, the last pass and its checks
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("HH_SEED", None)  # the CLI would read it as its sampling seed
    return env


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line.

    Returns the worker and the seconds that took at the speed probe's
    reference speed: divided by the machine's slowdown just before the start.
    """
    slowdown = spot_slowdown()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = (time.perf_counter() - t0) / slowdown
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, elapsed


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def measure_setup(base: list[str], spawns: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(spawns):
        proc, elapsed = start_worker(base + ["--setup-only"])
        try:
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"setup-only worker exited with {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    deadline = time.monotonic() + seconds + SLACK_S
    # Half the set-up samples before the measured run and half after it, so
    # that one slow spell of the shared machine cannot hold all of them.
    setup = [] if trace else measure_setup(base, SETUP_SPAWNS // 2, deadline)
    proc, elapsed = start_worker(base)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        stop(proc)
    if not trace:
        setup += measure_setup(base, SETUP_SPAWNS - SETUP_SPAWNS // 2, deadline)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        setup.append(elapsed)
        result["metrics"]["setup_s"] = {"value": median(setup), "unit": "s"}
    return result


def git_sha() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(result: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": result.get("python"),
        "numpy": result.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def summary(workload: str, result: dict) -> str:
    lines = [f"# {workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} verdicts={result['verdicts']}",
             f"#   pass wall times (s): {result['pass_wall_s']}"]
    if "fastest_wall_s" in result:
        lines.append(f"#   as measured: sum of fastest repeats {result['fastest_wall_s']:.6g} s; "
                     "probe slowdown quartiles " + ", ".join(f"{k:.3f}" for k in result["slowdown_quartiles"]))
    lines += [f"#   {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    if "failed_frac" not in result["metrics"]:
        lines.append(f"#   failed_frac = {result['failed'] / result['attempted']:.6g} fraction")
    lines += [f"#   problem: {p}" for p in result["problems"]]
    return "\n".join(lines)


def compare_counts(workload: str, result: dict) -> str:
    """Compare a traced default-seed run's deterministic counts with the recorded ones."""
    recorded = json.loads(RECORDED_COUNTS.read_text())[workload]
    diffs = [
        f"{name} = {result['metrics'][name]['value']} (recorded {value})"
        for name, value in recorded.items()
        if result["metrics"][name]["value"] != value
    ]
    return "# recorded seed-0 counts: " + ("; ".join(diffs) if diffs else "all match")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 gives the acceptance sweep's members")
    parser.add_argument("--seconds", type=int, default=30, help="measured window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hhverify" / "__init__.py").is_file():
        print(f"error: no hhverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print(summary(name, results[name]), flush=True)
        if args.trace and args.seed == DEFAULT_SEED:
            print(compare_counts(name, results[name]), flush=True)
    print("# machine: " + json.dumps(machine(next(iter(results.values())))))

    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({k: results[names[0]][k] for k in keys}))
    else:
        print(json.dumps({name: {k: r[k] for k in keys} for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
