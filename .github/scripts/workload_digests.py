"""Print one sha256 per (workload, seed) over the bytes ROOT's hhverify writes.

Usage: PYTHONPATH=ROOT/src python .github/scripts/workload_digests.py ROOT

The requests are built by the perfbench/workloads.py next to this script,
at seeds 0 and 7, and run in-process through ROOT's ``hhverify.cli.run``
in a temporary directory, so that every argv is the same on each run. A
digest covers every request's argv, exit code, stdout, stderr and output
files, so two roots that print the same line wrote the same bytes for
that workload and seed. Each line reads ``WORKLOAD SEED SHA256``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
SEEDS = (0, 7)


def _frame(digest, data: bytes) -> None:
    digest.update(b"%d:" % len(data))
    digest.update(data)


def _digest(requests) -> str:
    import hhverify.cli

    digest = hashlib.sha256()
    for request in requests:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = str(hhverify.cli.run(list(request.argv)))
            except Exception as err:  # a request that raises is part of what it wrote
                code = f"raised {type(err).__name__}: {err}"
        for text in (*request.argv, code, stdout.getvalue(), stderr.getvalue()):
            _frame(digest, text.encode())
        for path in (request.json_path, request.csv_path):
            if path is not None and os.path.exists(path):
                with open(path, "rb") as fh:
                    _frame(digest, fh.read())
            else:
                _frame(digest, b"(no file)")
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = (Path(argv[0]) / "src").resolve()
    import hhverify

    if Path(hhverify.__file__).resolve().parent.parent != src:
        print(f"error: imported hhverify from {hhverify.__file__}, not from {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                outdir = f"{workload}-{seed}"
                os.mkdir(outdir)
                print(workload, seed, _digest(workloads.build(workload, seed, outdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
