"""The report template renderer against the generic encoder, character for character.

``_ReportText`` renders a report's JSON object from one template and its CSV
row from memoised parameter cells. The references here are the generic
recursive walk ``_json_value(report_to_dict(r))`` and a plain ``csv.writer``
fed each report's cells, every number through ``_fmt_float``.
"""
import csv
import io
import math

from hypothesis import given, strategies as st

from hhverify.cli import _fmt_float, _json_value, _ReportText, report_to_dict
from hhverify.verify import InequalityReport, MinMargin, ReportParams, SweepSummary

SPECIAL = [None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, -2.75]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
present = numbers.filter(lambda v: v is not None)
words = st.one_of(
    st.sampled_from(["eq4", "dr2", "corrected", "printed", "pass", "skipped", "holds", "inconclusive"]),
    st.text(max_size=6),  # quotes, backslashes and control characters are escaped
)
families = st.one_of(
    st.none(),
    st.lists(st.tuples(st.sampled_from(["c", "k", "p", "q", 'n"\\\n']), present),
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
    text = _ReportText()
    for r in reports:
        assert text.json(r) == _json_value(report_to_dict(r))
    # the same memo then serves the CSV rows, as in `sweep --json --csv`
    assert text.csv(reports) == _reference_csv(reports)
    assert _ReportText().csv(reports) == _reference_csv(reports)


@given(report_lists(), st.one_of(st.none(), present))
def test_summary_json_matches_the_generic_encoder(reports, best_value):
    best = None
    if best_value is not None:
        r = reports[-1]
        best = MinMargin(best_value, r.theorem, r.variant, r.params)
    summary = SweepSummary(reports=tuple(reports), min_margin=best, counts={})
    best_dict = None if best is None else {
        "value": best.value, "theorem": best.theorem, "variant": best.variant,
        "params": report_to_dict(reports[-1])["params"],
    }
    expected = _json_value({"reports": [report_to_dict(r) for r in reports], "min_margin": best_dict})
    assert _ReportText().summary_json(summary) == expected
