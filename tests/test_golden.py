"""Byte-for-byte golden output.

The digests pin the exact JSON, CSV, table and error text of every path
that emits a report: the sweep and chain digests as produced before the
per-theorem switches were folded into one theorem table, the check and
search digests as produced by the generic recursive JSON encoder, before
reports were rendered from one template, and the search digest at
tolerances no finer than 1e-6 as produced before search ranked its points
at a screening tolerance. The search-budget digest was produced once search
ranked its points at max(tol, 1e-6) and recomputed only the best one at
tol; of its 490 outputs, that moved only the exp_affine eq4 box, an
equality family whose margins within 1e-14 of 0 cannot be ranked at the
screening tolerance. The best point is now computed once more at tol at
every tol; at 1e-6 and above that repeats a deterministic computation at
the same tolerance, so no digest moved. Any change to a byte of that output fails here, so a
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
from hhverify.cli import _render, _summary_json, run

SWEEP_CASES = (
    ("const", {"c": (0.5, 2.0)}, "off"),
    ("exp_affine", {"c": (0.25, 1.5), "k": (-1.0, 2.0)}, "per-point"),
    ("poly_shift", {"p": (0.5, 2.0), "q": (0.1, 1.0)}, "per-point"),
)
SWEEP_SHA256 = "9f3cf453963f6381dba20dc4708537fe733782edd9fcb207fd98a74aaaecc89b"
CHAIN_SHA256 = "e78bd9cd541567e3c9d65ac9fa0f790feb05d67f8551885e4d34434dce08275b"

FIVE = "eq4,eq11,eq22,eq31,eq42"
# check requests with one theorem (a bare JSON object) and five (a list);
# the comments give the verdicts
CHECK_CASES = (
    ["--theorem", "eq4", "--f", "exp(x)", "--m", "0.5"],  # holds
    ["--theorem", "eq31", "--f", "2", "--m", "0.5", "--hypothesis", "off"],  # inapplicable (exit 0)
    ["--theorem", "eq31", "--f", "2", "--m", "0.5"],  # inconclusive: class check fails
    ["--theorem", "eq22", "--variant", "printed", "--family", "const", "--param", "c=0.5"],  # violated
    # holds x3, then inconclusive x2 from the failed (alpha, m)-class check
    ["--theorem", FIVE, "--f", "exp(x)", "--m", "0.5", "--alpha", "0.5"],
    # violated x3, inapplicable x2
    ["--theorem", FIVE, "--family", "const", "--param", "c=2", "--m", "0.5", "--hypothesis", "off"],
    # inconclusive x5: the class check fails
    ["--theorem", FIVE, "--family", "const", "--param", "c=2", "--m", "0.5"],
    # holds x5, two family parameters
    ["--theorem", FIVE, "--family", "exp_affine", "--param", "k=2", "--param", "c=0.5",
     "--a", "0.25", "--b", "1.5", "--m", "0.75"],
)
CHECK_SHA256 = "39dbc37513d75e88f1a44890fe5fe0ac9515159c7fd98dec5188386237c80d24"
SEARCH_CASES = (
    ["--family", "const", "--range", "c=0.05:0.95", "--theorem", "eq22", "--variant", "printed",
     "--budget", "60"],
    ["--family", "exp_affine", "--range", "c=0.25:2", "--range", "k=-1:2", "--range", "m=0.25:1",
     "--theorem", "eq42", "--budget", "60"],
)
SEARCH_SHA256 = "d25131af18b6a0b054aebcec2bc789bcd2115bf9a8fee0576e3003aa96bf9bae"
# search boxes with and without alpha and m dimensions, each at budgets 1
# to 40 and seeds 0 and 7
SEARCH_BOXES = (
    ["--family", "const", "--range", "c=0.05:0.95", "--theorem", "eq22", "--variant", "printed"],
    ["--family", "const", "--range", "c=0.05:0.95", "--range", "alpha=0.25:1", "--range", "m=0.25:1",
     "--theorem", "eq42"],
    ["--family", "exp_affine", "--range", "c=0.25:2", "--range", "k=-1:2", "--theorem", "eq4"],
    ["--family", "exp_affine", "--range", "c=0.25:2", "--range", "k=-1:2", "--range", "alpha=0.25:1",
     "--range", "m=0.25:1", "--theorem", "eq31"],
    ["--family", "poly_shift", "--range", "p=0.5:3", "--range", "q=0.1:1", "--theorem", "dr2"],
    ["--family", "poly_shift", "--range", "p=0.5:3", "--range", "q=0.1:1", "--range", "alpha=0.5:1",
     "--range", "m=0.5:1", "--theorem", "eq42", "--variant", "printed"],
)
# Longer hunts, whose refinement cycles repeat a line search: the first with
# a smaller budget left than the line used before, the last with the other
# coordinate moved since
SEARCH_LONG = (
    (SEARCH_BOXES[0], (160, 250, 400)),
    (SEARCH_BOXES[2], (400,)),
    (["--family", "poly_shift", "--param", "p=2", "--param", "q=0.5", "--range", "a=0:1", "--range", "b=1:2",
      "--theorem", "eq22"], (500,)),
)
SEARCH_BOXES_SHA256 = "1277051e355604fd3921c84c10cef9bbc91e88282766b59e5be921c43cbf42a4"
# The search cases and two boxes whose integrals depend on tol, at budget 60
# and at tolerances no finer than the screening tolerance, where every point
# is ranked at tol and the best one's final computation at tol repeats its
# bytes: pinned before screening existed
SEARCH_INERT_CASES = SEARCH_CASES + (SEARCH_BOXES[3] + ["--budget", "60"], SEARCH_BOXES[4] + ["--budget", "60"])
SEARCH_INERT_SHA256 = "5f7d067aa57d3746531c56103d1a20a5f764b0b40f7f8027193e943757a68ded"


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
            # one pass for both outputs, as `sweep --json --csv` renders them
            json_text, csv_text = _render(summary.reports)
            digest.update(_summary_json(summary, json_text).encode())
            digest.update(csv_text.encode())
            verdicts.update(r.verdict for r in summary.reports)
    assert verdicts == {"holds": 1009, "violated": 111, "inapplicable": 32, "inconclusive": 1088}
    assert digest.hexdigest() == SWEEP_SHA256


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_check_output_is_byte_identical():
    digest = hashlib.sha256()
    codes = []
    for case in CHECK_CASES:
        for output in (["--json", "-"], ["--csv", "-"]):
            code, out, err = _run(["check"] + case + output)
            codes.append(code)
            digest.update(out.encode())
            digest.update(err.encode())
    assert codes == [0, 0, 0, 0, 3, 3, 1, 1, 3, 3, 1, 1, 3, 3, 0, 0]
    assert digest.hexdigest() == CHECK_SHA256


def test_search_output_is_byte_identical():
    digest = hashlib.sha256()
    codes = []
    for case in SEARCH_CASES:
        code, out, err = _run(["search"] + case + ["--json", "-"])
        codes.append(code)
        digest.update(out.encode())
        digest.update(err.encode())
    assert codes == [1, 0]
    assert digest.hexdigest() == SEARCH_SHA256


def test_search_at_a_tol_no_finer_than_screening_is_byte_identical():
    digest = hashlib.sha256()
    codes = []
    for tol in ("1e-6", "1e-5"):
        for case in SEARCH_INERT_CASES:
            code, out, err = _run(["search"] + case + ["--tol", tol, "--json", "-"])
            codes.append(code)
            digest.update(out.encode())
            digest.update(err.encode())
    assert codes == [1, 0, 1, 1] * 2
    assert digest.hexdigest() == SEARCH_INERT_SHA256


def test_chain_output_is_byte_identical():
    digest = hashlib.sha256()
    codes = []
    for theorem in ("dr1", "dr2"):
        for expr in ("exp(x^2)", "1+x", "ln(x-0.5)"):
            for extra in ([], ["--json", "-"]):
                code, out, err = _run(["chain", "--theorem", theorem, "--f", expr] + extra)
                codes.append(code)
                digest.update(out.encode())
                digest.update(err.encode())
    assert codes == [0, 0, 3, 3, 3, 3, 0, 0, 3, 3, 3, 3]
    assert digest.hexdigest() == CHAIN_SHA256


def test_search_budgets_are_byte_identical():
    digest = hashlib.sha256()
    cases = [(box, budget) for box in SEARCH_BOXES for budget in range(1, 41)]
    cases += [(box, budget) for box, budgets in SEARCH_LONG for budget in budgets]
    for seed in (0, 7):
        for box, budget in cases:
            code, out, err = _run(["search", *box, "--budget", str(budget), "--seed", str(seed), "--json", "-"])
            digest.update(f"{code}\n".encode())
            digest.update(out.encode())
            digest.update(err.encode())
    assert digest.hexdigest() == SEARCH_BOXES_SHA256
