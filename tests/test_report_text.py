"""The report template renderer against the generic encoder, character for character.

``_ReportText`` renders a report's JSON object and its CSV row from templates,
with each report's numbers formatted once and shared by the two outputs. The
references here are the generic recursive walk
``_json_value(_reference_dict(r))`` and a plain ``csv.writer`` fed each
report's cells, every number through ``_fmt_float``.
"""
import csv
import io
import math

import pytest
from hypothesis import given, strategies as st

import hhverify.cli as cli
from hhverify.cli import _fmt_float, _json_value, _ReportText
from hhverify.verify import InequalityReport, MinMargin, ReportParams, SweepSummary

SPECIAL = [None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, -2.75]
# 1e308 + 1e308 overflows, so four finite numbers can still miss the fast path;
# integers are not floats and print differently in JSON
numbers = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True), st.integers(-(10**20), 10**20),
)
present = numbers.filter(lambda v: v is not None)
# cells csv.writer quotes or keeps as they are: delimiter, quote, line breaks, spaces, empty
CSV_WORDS = ["a,b", 'say "hi"', '"', "cr\rlf", "two\nlines", "\r\n", " lead", "trail ", "", ","]
words = st.one_of(
    st.sampled_from(["eq4", "dr2", "corrected", "printed", "pass", "skipped", "holds", "inconclusive"]),
    st.sampled_from(CSV_WORDS),
    st.text(max_size=6),  # quotes, backslashes and control characters are escaped
)
families = st.one_of(
    st.none(),
    st.lists(st.tuples(st.sampled_from(["c", "k", "p", "q", 'n"\\\n', "x,y", " s "]), present),
             min_size=1, max_size=2).map(tuple),
)
params = st.builds(
    ReportParams,
    st.sampled_from([0.0, -0.0, 0.5, math.inf]) | present,
    present, present, present, families,
)
# a few ReportParams objects shared by many reports, as at one sweep point;
# 0.0 and -0.0 in equal but distinct objects must not share memoised text
pools = st.lists(params, min_size=1, max_size=3).map(
    lambda pool: pool + [ReportParams(-p.a, p.b, p.alpha, p.m, p.family) for p in pool if p.a == 0.0]
)


@st.composite
def report_lists(draw):
    pool = draw(pools)
    return [
        InequalityReport(
            draw(words), draw(words), draw(st.sampled_from(pool)), draw(words),
            draw(numbers), draw(numbers), draw(numbers), draw(present), draw(words),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]


def _reference_dict(r) -> dict:
    """A report's JSON form as a dict: exactly these nine keys, in this order."""
    p = r.params
    return {
        "theorem": r.theorem,
        "variant": r.variant,
        "params": {
            "a": p.a, "b": p.b, "alpha": p.alpha, "m": p.m,
            "family_params": None if p.family is None else dict(p.family),
        },
        "hypothesis": r.hypothesis,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "quad_err": r.quad_err,
        "verdict": r.verdict,
    }


def _reference_csv(reports) -> str:
    def number(value):
        return "" if value is None else _fmt_float(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", "variant", "a", "b", "alpha", "m", "family_params",
                     "lhs", "rhs", "margin", "quad_err", "hypothesis", "verdict"])
    for r in reports:
        p = r.params
        family = "" if p.family is None else ";".join(f"{k}={_fmt_float(v)}" for k, v in p.family)
        writer.writerow([r.theorem, r.variant, _fmt_float(p.a), _fmt_float(p.b), _fmt_float(p.alpha),
                         _fmt_float(p.m), family, number(r.lhs), number(r.rhs), number(r.margin),
                         _fmt_float(r.quad_err), r.hypothesis, r.verdict])
    return buf.getvalue()


@given(report_lists())
def test_json_and_csv_match_the_generic_encoders(reports):
    expected_json = [_json_value(_reference_dict(r)) for r in reports]
    expected_csv = _reference_csv(reports)
    text = _ReportText()
    assert [text.json(r) for r in reports] == expected_json
    assert text.csv(reports) == expected_csv
    # a shared instance keeps each report's text for the other output, in either order
    text = _ReportText(shared=True)
    assert text.json_items(reports) == expected_json
    assert text.csv(reports) == expected_csv
    text = _ReportText(shared=True)
    assert text.csv(reports) == expected_csv
    assert text.json_items(reports) == expected_json
    assert text.csv(reports) == expected_csv
    assert _ReportText().csv(reports) == expected_csv
    assert _ReportText(shared=True).csv(reports) == expected_csv


@given(report_lists(), st.one_of(st.none(), present))
def test_summary_json_matches_the_generic_encoder(reports, best_value):
    best = None
    if best_value is not None:
        r = reports[-1]
        best = MinMargin(best_value, r.theorem, r.variant, r.params)
    summary = SweepSummary(reports=tuple(reports), min_margin=best, counts={})
    best_dict = None if best is None else {
        "value": best.value, "theorem": best.theorem, "variant": best.variant,
        "params": _reference_dict(reports[-1])["params"],
    }
    expected = _json_value({"reports": [_reference_dict(r) for r in reports], "min_margin": best_dict})
    assert _ReportText().summary_json(summary) == expected


@pytest.mark.parametrize("shared,renderings", [(True, 1), (False, 2)])
@given(reports=report_lists())
def test_shared_outputs_format_each_report_once(shared, renderings, reports):
    calls = []
    numbers = cli._numbers

    def counted(values):
        calls.append(values)
        return numbers(values)

    summary = SweepSummary(reports=tuple(reports), min_margin=None, counts={})
    text = _ReportText(shared=shared)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_numbers", counted)
        summary_json = text.summary_json(summary)
        csv_text = text.csv(summary.reports)
    assert summary_json == _ReportText().summary_json(summary)
    assert csv_text == _reference_csv(reports)
    points = {id(r.params) for r in reports}
    assert len(calls) == renderings * len(reports) + len(points)
