"""Byte-for-byte golden output.

The digests pin the exact JSON, CSV, table and error text of the sweep and
chain paths, as produced before the per-theorem switches were folded into
one theorem table. Any change to a byte of that output fails here, so a
refactor that claims to change nothing can be checked against them; a
change that means to alter the output must update the digests and say why.
Each digest is the sha256 of the concatenated UTF-8 text.
"""
import hashlib
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from hhverify import THEOREMS, sweep
from hhverify.bounds import VARIANTS
from hhverify.cli import _json_value, _reports_to_csv, run, summary_to_dict

SWEEP_CASES = (
    ("const", {"c": (0.5, 2.0)}, "off"),
    ("exp_affine", {"c": (0.25, 1.5), "k": (-1.0, 2.0)}, "per-point"),
    ("poly_shift", {"p": (0.5, 2.0), "q": (0.1, 1.0)}, "per-point"),
)
SWEEP_SHA256 = "9f3cf453963f6381dba20dc4708537fe733782edd9fcb207fd98a74aaaecc89b"
CHAIN_SHA256 = "a107c52ea95b17b59c645552529288fd845072ded4ad2a2738c729e9801371c9"


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("HH_SEED", raising=False)


def test_all_theorem_sweeps_are_byte_identical():
    digest = hashlib.sha256()
    verdicts: Counter = Counter()
    for family, grids, hypothesis in SWEEP_CASES:
        for variant in VARIANTS:
            summary = sweep(family, grids, (0.0, 0.5), (1.0, 2.0), (0.5, 1.0), (0.5, 1.0), THEOREMS,
                            variant=variant, hypothesis=hypothesis)
            digest.update(_json_value(summary_to_dict(summary)).encode())
            digest.update(_reports_to_csv(summary.reports).encode())
            verdicts.update(r.verdict for r in summary.reports)
    assert verdicts == {"holds": 1009, "violated": 111, "inapplicable": 32, "inconclusive": 1088}
    assert digest.hexdigest() == SWEEP_SHA256


def test_chain_output_is_byte_identical():
    digest = hashlib.sha256()
    codes = []
    for theorem in ("dr1", "dr2"):
        for expr in ("exp(x^2)", "1+x", "ln(x-0.5)"):
            for extra in ([], ["--json", "-"]):
                out, err = StringIO(), StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    codes.append(run(["chain", "--theorem", theorem, "--f", expr] + extra))
                digest.update(out.getvalue().encode())
                digest.update(err.getvalue().encode())
    assert codes == [0, 0, 3, 3, 3, 3, 0, 0, 3, 3, 3, 3]
    assert digest.hexdigest() == CHAIN_SHA256
