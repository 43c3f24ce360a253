import inspect
import math

import pytest

import hhverify.verify
from hhverify import (
    ClassParams,
    FamilyError,
    FamilySpec,
    HOLDS,
    HYP_FAIL,
    HYP_PASS,
    HYP_SKIPPED,
    INAPPLICABLE,
    INCONCLUSIVE,
    Interval,
    VIOLATED,
    margin_tolerance,
    parse,
    replay_verdict,
    THEOREMS,
    family_instantiate,
    search_min_margin,
    sweep,
    verify_theorem,
    verify_theorems,
)
from hhverify.bounds import RATIO_ABOVE_ONE

UNIT = Interval(0.0, 1.0)


def test_eq4_exp_holds_with_hypothesis_pass():
    r = verify_theorem("eq4", parse("exp(x)"), UNIT)
    assert r.verdict == HOLDS
    assert r.hypothesis == HYP_PASS
    assert abs(r.margin) <= 1e-8  # equality family
    assert r.params.a == 0.0 and r.params.b == 1.0
    assert r.params.family is None


def test_eq22_printed_const_is_violated():
    r = verify_theorem("eq22", parse("0.5"), UNIT, variant="printed")
    assert r.verdict == VIOLATED
    assert r.margin == pytest.approx(-0.25, abs=1e-12)
    assert r.variant == "printed"


@pytest.mark.parametrize("theorem", ["eq31", "eq42"])
@pytest.mark.parametrize("variant", ["printed", "corrected"])
def test_large_constant_is_inapplicable(theorem, variant):
    r = verify_theorem(theorem, parse("2"), UNIT, m=0.5, variant=variant, check_hypothesis=False)
    assert r.verdict == INAPPLICABLE
    assert r.lhs == pytest.approx(2.0, rel=1e-12)
    assert r.rhs is None and r.margin is None
    assert r.diagnostics == RATIO_ABOVE_ONE


def test_verify_theorem_forwards_its_keywords():
    assert all(p.default is inspect.Parameter.empty for p in inspect.signature(verify_theorem).parameters.values())
    family = FamilySpec("poly_shift", {"p": 2.0, "q": 0.5})
    f, iv = family_instantiate(family), Interval(0.5, 1.5)
    keywords = dict(
        m=0.75, alpha=0.5, variant="printed", tol=1e-9, check_hypothesis=True, grid_n=9, tol_rel=1e-6, seed=7,
        family=family,
    )
    for theorem in THEOREMS:
        for given in ({}, keywords):
            one = verify_theorem(theorem, f, iv, **given)
            (listed,) = verify_theorems([theorem], f, iv, **given)
            assert (one, one.diagnostics, one.terms) == (listed, listed.diagnostics, listed.terms)


def test_hypothesis_failure_is_inconclusive():
    # log-convex on [1, 2] but the class check samples [0, b/m] = [0, 2]
    r = verify_theorem("eq4", parse("x^2+1"), Interval(1.0, 2.0))
    assert r.verdict == INCONCLUSIVE
    assert r.hypothesis == HYP_FAIL
    assert r.lhs is None and r.rhs is None and r.margin is None
    assert "class check failed" in r.diagnostics


def test_hypothesis_abort_is_inconclusive():
    r = verify_theorem("eq4", parse("1/(1-x)"), Interval(0.0, 2.0))
    assert r.verdict == INCONCLUSIVE
    assert r.hypothesis == HYP_SKIPPED
    assert r.diagnostics.startswith("class check aborted")


def test_quadrature_failure_is_inconclusive():
    r = verify_theorem("eq4", parse("1/(1-x)"), Interval(0.0, 2.0), check_hypothesis=False)
    assert r.verdict == INCONCLUSIVE
    assert r.hypothesis == HYP_SKIPPED
    assert r.lhs is None and r.margin is None
    assert "x=1.0" in r.diagnostics


def test_dr2_exp_holds_and_normalizes_params():
    r = verify_theorem("dr2", parse("exp(x)"), UNIT, m=0.25, alpha=0.5)
    assert r.verdict == HOLDS
    assert r.hypothesis == HYP_PASS
    # chain statements have no class parameters; the report pins both to 1
    assert r.params.m == 1.0 and r.params.alpha == 1.0


def test_dr1_quadratic_violated_off_origin():
    r = verify_theorem("dr1", parse("x^2+1"), Interval(1.0, 2.0), check_hypothesis=False)
    assert r.verdict == VIOLATED
    assert r.lhs == pytest.approx(3.219621527829918, rel=1e-12)
    assert r.rhs == pytest.approx(math.sqrt(10.0), rel=1e-14)
    assert r.margin == pytest.approx(-0.05734386766153895, rel=1e-10)
    assert "geometric_mean_integral <= endpoint_geometric_mean" in r.diagnostics


@pytest.mark.parametrize(
    "theorem,expected",
    [
        ("dr1", ClassParams(1.0, 1.0)),
        ("dr2", ClassParams(1.0, 1.0)),
        ("eq4", ClassParams(0.5, 1.0)),
        ("eq11", ClassParams(0.5, 1.0)),
        ("eq22", ClassParams(0.5, 1.0)),
        ("eq31", ClassParams(0.5, 0.25)),
        ("eq42", ClassParams(0.5, 0.25)),
    ],
)
def test_effective_class_params(theorem, expected):
    assert hhverify.verify._require_theorem(theorem).effective_class(0.5, 0.25) == expected


class TestReplayVerdict:
    def test_total_rule(self):
        assert replay_verdict(None, None, None, 0.0) == INCONCLUSIVE
        assert replay_verdict(None, 5.0, None, 0.0) == INCONCLUSIVE
        assert replay_verdict(1.0, None, None, 0.0) == INAPPLICABLE
        assert replay_verdict(1.0, 2.0, 1.0, 0.0) == HOLDS
        assert replay_verdict(2.0, 1.0, -1.0, 0.0) == VIOLATED

    def test_tolerance_band(self):
        # inside the band: 10 * quad_err + 1e-9 * max(1, |lhs|, |rhs|)
        assert margin_tolerance(1.0, 1.0, 1e-12) == pytest.approx(1.01e-9, rel=1e-12)
        assert replay_verdict(1.0, 1.0, -1e-10, 1e-12) == HOLDS
        assert replay_verdict(1.0, 1.0, -1e-6, 1e-12) == VIOLATED

    def test_missing_margin_rejected(self):
        with pytest.raises(ValueError):
            replay_verdict(1.0, 2.0, None, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"m": 0.0},
        {"m": 1.5},
        {"alpha": 0.0},
        {"variant": "fixed"},
    ],
)
def test_verify_theorem_validation(kwargs):
    with pytest.raises(ValueError):
        verify_theorem("eq4", parse("exp(x)"), UNIT, check_hypothesis=False, **kwargs)


def test_verify_theorem_unknown_theorem():
    with pytest.raises(ValueError):
        verify_theorem("eq99", parse("exp(x)"), UNIT)


TOL_ERROR = r"tol must be a finite real >= 1e-13"


@pytest.mark.parametrize("text,iv,tol", [
    ("exp(x)", UNIT, 1e-16),
    # the class check fails on [0, 2], so no integral runs to check the tolerance
    ("1/(1-x)", Interval(0.0, 2.0), 1e-16),
    ("1/(1-x)", Interval(0.0, 2.0), math.nan),
])
def test_verify_theorem_rejects_unreachable_tol(text, iv, tol):
    with pytest.raises(ValueError, match=TOL_ERROR):
        verify_theorem("eq4", parse(text), iv, tol=tol)


class TestSweep:
    def test_equality_family_sweep(self):
        kwargs = dict(variant="corrected", hypothesis="once")
        summary = sweep(
            "exp_linear", {"k": (0.5, 1.0, 2.0)},
            (0.0,), (1.0,), (0.5, 1.0), (1.0,), ("eq4",), **kwargs,
        )
        assert len(summary.reports) == 6
        assert all(r.verdict == HOLDS for r in summary.reports)
        assert all(r.hypothesis == HYP_PASS for r in summary.reports)
        assert summary.counts == {HOLDS: 6, VIOLATED: 0, INAPPLICABLE: 0, INCONCLUSIVE: 0}
        assert summary.min_margin is not None
        assert abs(summary.min_margin.margin) <= 1e-8
        again = sweep(
            "exp_linear", {"k": (0.5, 1.0, 2.0)},
            (0.0,), (1.0,), (0.5, 1.0), (1.0,), ("eq4",), **kwargs,
        )
        assert again == summary

    def test_min_margin_is_the_first_report_of_least_margin(self):
        # c = 2 has an inapplicable eq31 (no margin); the two c = 0.5 members tie at the least margin
        summary = sweep(
            "const", {"c": (2.0, 0.5, 0.5)},
            (0.0,), (1.0,), (0.5,), (1.0,), ("eq31", "eq22"), variant="printed",
        )
        reports = summary.reports
        assert [r.verdict for r in reports] == [INAPPLICABLE, HOLDS, HOLDS, VIOLATED, HOLDS, VIOLATED]
        assert reports[3] == reports[5] and reports[3].margin == reports[5].margin
        assert summary.min_margin is reports[3]
        least = min(r.margin for r in reports if r.margin is not None)
        assert summary.min_margin is next(r for r in reports if r.margin == least)

    def test_iteration_order(self):
        summary = sweep(
            "const", {"c": (0.5,)},
            (0.0,), (1.0, 2.0), (0.5, 1.0), (1.0,), ("eq4", "eq11"),
            hypothesis="off",
        )
        seen = [(r.params.b, r.params.m, r.theorem) for r in summary.reports]
        assert seen == [
            (1.0, 0.5, "eq4"), (1.0, 0.5, "eq11"),
            (1.0, 1.0, "eq4"), (1.0, 1.0, "eq11"),
            (2.0, 0.5, "eq4"), (2.0, 0.5, "eq11"),
            (2.0, 1.0, "eq4"), (2.0, 1.0, "eq11"),
        ]
        assert all(r.params.family == (("c", 0.5),) for r in summary.reports)

    def test_degenerate_intervals_are_skipped(self):
        summary = sweep(
            "const", {"c": (0.5,)},
            (0.0, 1.0), (0.5, 1.0), (1.0,), (1.0,), ("eq4",),
            hypothesis="off",
        )
        assert [(r.params.a, r.params.b) for r in summary.reports] == [(0.0, 0.5), (0.0, 1.0)]

    def test_empty_grid(self):
        summary = sweep("const", {"c": (0.5,)}, (0.0,), (), (1.0,), (1.0,), ("eq4",))
        assert summary.reports == ()
        assert summary.min_margin is None
        assert set(summary.counts.values()) == {0}

    @pytest.mark.parametrize("family,grid,theorem,variant,diagnostics", [
        # exp(1000 x) overflows the positivity range at x = 1
        ("exp_linear", {"k": (1.0, 1000.0)}, "eq4", "corrected", "value overflowed to non-finite"),
        # f(a) f(b) = 1e400 overflows the printed closed form
        ("const", {"c": (1.0, 1e200)}, "eq22", "printed", "closed form overflowed: math range error"),
    ], ids=["evaluation", "closed_form"])
    def test_errors_do_not_abort(self, family, grid, theorem, variant, diagnostics):
        summary = sweep(
            family, grid,
            (0.0,), (1.0,), (1.0,), (1.0,), (theorem,),
            variant=variant, hypothesis="off",
        )
        assert [r.verdict for r in summary.reports] == [HOLDS, INCONCLUSIVE]
        assert summary.counts[INCONCLUSIVE] == 1
        assert diagnostics in summary.reports[1].diagnostics

    def test_hypothesis_off_labels_reports_skipped(self):
        summary = sweep(
            "const", {"c": (0.5,)}, (0.0,), (1.0,), (0.5,), (1.0,), ("eq4",),
            hypothesis="off",
        )
        (report,) = summary.reports
        assert report.hypothesis == HYP_SKIPPED
        assert report.verdict == HOLDS

    def test_once_mode_gates_nonmembers(self):
        summary = sweep(
            "poly_shift", {"p": (2.0,), "q": (1.0,)},
            (0.0,), (2.0,), (1.0,), (1.0,), ("eq4", "eq11"),
            hypothesis="once",
        )
        assert len(summary.reports) == 2
        assert all(r.verdict == INCONCLUSIVE for r in summary.reports)
        assert all(r.hypothesis == HYP_FAIL for r in summary.reports)

    def test_per_point_mode_passes_members(self):
        summary = sweep(
            "const", {"c": (0.5,)}, (0.0,), (1.0,), (0.5, 1.0), (1.0,), ("eq4",),
            hypothesis="per-point",
        )
        assert all(r.hypothesis == HYP_PASS for r in summary.reports)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            sweep("const", {"c": (0.5,)}, (0.0,), (1.0,), (1.0,), (1.0,), ("eq4",), hypothesis="always")

    @pytest.mark.parametrize("a_values,m_values,alpha_values,theorem,kwargs,message", [
        ((1.0,), (1.0,), (1.0,), "eq4", {"tol": 0.0}, TOL_ERROR),  # no a < b point, so no integral
        ((0.0,), (1.0,), (1.0,), "eq4", {"tol": math.inf}, TOL_ERROR),
        ((0.0,), (1.0,), (0.5, 7.0), "eq4", {}, r"alpha must lie in \(0, 1\], got 7.0"),  # eq4 ignores alpha
        ((0.0,), (2.0,), (5.0,), "dr1", {}, r"m must lie in \(0, 1\], got 2.0"),  # chains ignore both
        ((1.0,), (0.0,), (1.0,), "eq4", {}, r"m must lie in \(0, 1\], got 0.0"),
        # a non-finite endpoint is refused, not skipped like a point with a >= b
        ((math.nan,), (1.0,), (1.0,), "eq4", {}, r"a values must be finite, got \[nan\]"),
        ((0.0, math.inf), (1.0,), (1.0,), "eq4", {}, r"a values must be finite, got \[0.0, inf\]"),
        ((0.0,), (1.0,), (1.0,), "eq4", {"b_values": (math.nan, 1.0)}, r"b values must be finite, got \[nan, 1.0\]"),
        ((0.0,), (1.0,), (1.0,), "eq4", {"b_values": (-math.inf,)}, r"b values must be finite, got \[-inf\]"),
        # a negative a is refused too, although the point (0, 1) comes first
        ((0.0, -1.0), (1.0,), (1.0,), "eq4", {}, r"a values must stay >= 0, got \[0.0, -1.0\]"),
    ])
    def test_value_validation(self, a_values, m_values, alpha_values, theorem, kwargs, message):
        grids = {"a_values": a_values, "b_values": (1.0,), "m_values": m_values, "alpha_values": alpha_values}
        with pytest.raises(ValueError, match=message):
            sweep("const", {"c": (0.5,)}, theorems=(theorem,), **{**grids, **kwargs})

    @pytest.mark.parametrize("family,grids,message", [
        ("const", {"c": (0.5, -1.0)}, r"parameter 'c' must be > 0, got -1.0"),
        ("exp_affine", {"c": (0.5,), "k": (1.0, 2.0, math.nan)}, r"parameter 'k' must be finite, got nan"),
        ("poly_shift", {"p": (2.0,), "q": (1.0, 0.0)}, r"parameter 'q' must be > 0, got 0.0"),
        ("const", {"z": (1.0,)}, r"family 'const': missing \['c'\], unexpected \['z'\]"),
        ("gaussian", {"s": (1.0,)}, r"unknown family 'gaussian'"),
    ])
    def test_family_values_are_refused_before_any_report(self, monkeypatch, family, grids, message):
        # the valid members before the bad value are not computed first
        monkeypatch.setattr(hhverify.verify, "_reports", lambda *args, **kwargs: pytest.fail("a report was computed"))
        with pytest.raises(FamilyError, match=message):
            sweep(family, grids, (0.0,), (1.0,), (1.0,), (1.0,), ("eq4",))


def test_replay_matches_every_reported_verdict():
    reports = [
        verify_theorem("eq4", parse("exp(x)"), UNIT, check_hypothesis=False),
        verify_theorem("eq22", parse("0.5"), UNIT, variant="printed", check_hypothesis=False),
        verify_theorem("eq31", parse("2"), UNIT, m=0.5, check_hypothesis=False),
        verify_theorem("eq4", parse("1/(1-x)"), Interval(0.0, 2.0), check_hypothesis=False),
        verify_theorem("dr1", parse("x^2+1"), Interval(1.0, 2.0), check_hypothesis=False),
    ]
    summary = sweep(
        "exp_affine", {"c": (0.5, 1.5), "k": (0.5,)},
        (0.0,), (1.0, 2.0), (0.5, 1.0), (0.5, 1.0),
        ("eq4", "eq11", "eq22", "eq31", "eq42"),
        hypothesis="off",
    )
    reports.extend(summary.reports)
    assert len(reports) > 40
    for r in reports:
        assert replay_verdict(r.lhs, r.rhs, r.margin, r.quad_err) == r.verdict, r


# The five hunts of the search benchmark workload (budget 1,500), with the
# best margin and verdict each reached at seed 0 once line searches tested
# their range bound; each is at or below the margin reached when every point
# was integrated at tol 1e-10, before points were ranked at a screening
# tolerance, and below the one reached before lines tested their bound
WORKLOAD_HUNTS = (
    ("const", {"c": (0.2, 1.0)}, "eq22", "printed", -0.25000000000000006, VIOLATED),
    ("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0)}, "dr2", "corrected", -0.22154126124694884, VIOLATED),
    ("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0), "m": (0.5, 1.0)}, "eq11", "corrected",
     -0.09025386778147892, VIOLATED),
    ("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0), "alpha": (0.5, 1.0), "m": (0.5, 1.0)}, "eq42", "printed",
     -0.4105231539835224, VIOLATED),
    ("exp_affine", {"c": (0.2, 1.0), "k": (0.5, 2.0), "alpha": (0.25, 1.0), "m": (0.25, 1.0)}, "eq31", "corrected",
     -4.440892098500626e-16, HOLDS),
)


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize(
    "family,box,theorem,variant,margin,verdict", WORKLOAD_HUNTS, ids=[hunt[2] for hunt in WORKLOAD_HUNTS],
)
def test_workload_hunts_keep_their_margins_and_verdicts(family, box, theorem, variant, margin, verdict, seed):
    result = search_min_margin(family, box, theorem, variant=variant, budget=1500, seed=seed)
    assert result.best_margin <= margin + 1e-12
    assert result.report.verdict == verdict
    if theorem == "eq22":
        assert result.best_margin == pytest.approx(-0.25, abs=1e-12)


class TestSearch:
    def test_finds_printed_eq22_violation(self):
        result = search_min_margin(
            "const", {"c": (0.1, 0.9)}, "eq22", variant="printed", budget=200,
        )
        assert result.best_margin == pytest.approx(-0.25, abs=1e-4)
        assert result.best_params["c"] == pytest.approx(0.5, abs=0.01)
        assert result.report.verdict == VIOLATED
        assert result.evals <= 200

    def test_deterministic(self):
        kwargs = dict(variant="printed", budget=80, seed=7)
        first = search_min_margin("const", {"c": (0.1, 0.9)}, "eq22", **kwargs)
        second = search_min_margin("const", {"c": (0.1, 0.9)}, "eq22", **kwargs)
        assert first == second

    def test_equality_family_has_no_violation(self):
        result = search_min_margin("exp_linear", {"k": (0.1, 3.0)}, "eq4", budget=100)
        assert result.best_margin >= -1e-8
        assert result.report.verdict == HOLDS

    def test_budget_one_is_a_single_probe(self):
        result = search_min_margin("const", {"c": (0.1, 0.9)}, "eq22", variant="printed", budget=1)
        assert result.evals == 1
        assert result.best_margin < 0.0

    def test_empty_intervals_count_as_infinite(self):
        result = search_min_margin(
            "const", {"a": (0.0, 2.0), "b": (0.5, 1.5)}, "eq4",
            fixed={"c": 0.5}, budget=60,
        )
        assert math.isfinite(result.best_margin)
        assert result.best_params["a"] < result.best_params["b"]

    def test_out_of_range_family_parameter_counts_as_infinite(self):
        result = search_min_margin("const", {"c": (-1.0, -0.5)}, "eq4", budget=4)
        assert (result.best_margin, result.evals, result.report.verdict) == (math.inf, 4, INCONCLUSIVE)
        assert result.report.diagnostics == f"parameter 'c' must be > 0, got {result.best_params['c']!r}"

    def test_no_search_dimensions(self):
        result = search_min_margin("const", {}, "eq4", fixed={"c": 0.5}, budget=50)
        assert result.evals == 1
        assert result.best_margin == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "box,fixed",
        [
            ({"c": (0.1, 0.9)}, {"c": 0.5}),          # overlap
            ({"c": (0.9, 0.1)}, None),                 # lo >= hi
            ({"c": (-1e308, 1e308)}, None),            # both ends finite, the width not
            ({"c": (0.1, 0.9), "m": (0.0, 2.0)}, None),  # m outside (0, 1]
            ({"c": (0.1, 0.9), "alpha": (0.5, 2.0)}, None),  # alpha outside (0, 1], unused by eq4
            ({"c": (0.1, 0.9)}, {"alpha": 3.0}),       # fixed alpha outside (0, 1]
            ({"c": (0.1, 0.9)}, {"m": 0.0}),           # fixed m outside (0, 1]
            ({"c": (0.1, 0.9), "a": (-1.0, 1.0)}, None),  # negative a
            ({"c": (0.1, 0.9)}, {"a": math.nan}),      # fixed a not finite
            ({"c": (0.1, 0.9)}, {"b": math.inf}),      # fixed b not finite
            ({"c": (0.1, 0.9)}, {"a": -1.0}),          # fixed a negative
        ],
    )
    def test_validation(self, box, fixed):
        with pytest.raises(ValueError):
            search_min_margin("const", box, "eq4", fixed=fixed)

    @pytest.mark.parametrize("family,box,fixed,message", [
        ("gaussian", {"s": (0.1, 1.0)}, None, r"unknown family 'gaussian'"),
        ("const", {"z": (0.0, 1.0)}, {"c": 0.5}, r"family 'const': unexpected \['z'\]"),
        ("const", {}, {}, r"family 'const': missing \['c'\]"),
        ("poly_shift", {"p": (1.0, 2.0), "b": (1.0, 2.0)}, {"z": 1.0}, r"missing \['q'\], unexpected \['z'\]"),
    ])
    def test_family_names_are_checked_as_sweep_checks_them(self, family, box, fixed, message):
        with pytest.raises(FamilyError, match=message):
            search_min_margin(family, box, "eq4", fixed=fixed)

    @pytest.mark.parametrize("family,box,fixed,message", [
        ("const", {"b": (0.5, 2.0)}, {"c": -1.0}, r"parameter 'c' must be > 0, got -1.0"),
        ("poly_shift", {"p": (1.0, 2.0)}, {"q": 0.0}, r"parameter 'q' must be > 0, got 0.0"),
        ("exp_linear", {"b": (0.5, 2.0)}, {"k": math.inf}, r"parameter 'k' must be finite, got inf"),
    ])
    def test_fixed_family_value_out_of_range(self, monkeypatch, family, box, fixed, message):
        # refused before the lattice: no point is evaluated, not even as a failing one
        fail = lambda *args, **kwargs: pytest.fail("a point was evaluated")  # noqa: E731
        monkeypatch.setattr(hhverify.verify, "_reports", fail)
        monkeypatch.setattr(hhverify.verify, "_report", fail)
        with pytest.raises(FamilyError, match=message):
            search_min_margin(family, box, "eq4", fixed=fixed, budget=50)

    def test_box_value_out_of_range_counts_as_a_failing_point(self, monkeypatch):
        # every point evaluated counts toward evals, the failing ones (c <= 0:
        # 5 of the 10 lattice points and one line point) too; only the best
        # point's last computation at tol is not counted. The hunt ends before
        # its budget of 20: its one line stops on its bound, and a cycle that
        # leaves the margin where it was does not improve
        points, report = [], hhverify.verify._report

        def counted_report(theorem, variant, rp, *args, **kwargs):
            points.append(dict(rp.family)["c"])
            return report(theorem, variant, rp, *args, **kwargs)

        monkeypatch.setattr(hhverify.verify, "_report", counted_report)
        result = search_min_margin("const", {"c": (-1.0, 1.0)}, "eq4", budget=20)
        assert result.best_params["c"] > 0.0
        assert result.evals == len(points) - 1 == 15
        assert sum(c <= 0.0 for c in points) == 6

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            search_min_margin("const", {"c": (0.1, 0.9)}, "eq4", budget=0)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_a_minimum_on_range_bounds_ends_there_exactly(self, seed):
        # the dr2 margin of x^p + q falls toward p = 1 and q = 0.05: each
        # line's bound test ends it there, where golden section alone never
        # evaluates a bound and spent the whole budget of 200 stopping 6e-13
        # and 4e-9 inside them, 4.4e-9 above this margin
        result = search_min_margin("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0)}, "dr2", budget=200, seed=seed)
        assert (result.best_params["p"], result.best_params["q"]) == (1.0, 0.05)
        assert result.best_margin == -0.22154126124694884
        assert result.evals == 120

    def test_a_minimum_near_a_bound_is_not_taken_for_the_bound(self):
        # eq42's q line has its minimum at q = 0.0942, near its bound 0.05: a
        # test of g(bound) against the bracket's best alone ended that line at
        # q = 0.128 with margin -0.40880; the slope test at the bound does not
        result = search_min_margin(
            "poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0), "alpha": (0.5, 1.0), "m": (0.5, 1.0)}, "eq42",
            variant="printed", budget=1500, seed=0,
        )
        assert result.best_margin == pytest.approx(-0.4105231539835, abs=1e-12)
        assert result.best_params["q"] == pytest.approx(0.0942, abs=1e-4)
        assert (result.best_params["p"], result.best_params["alpha"], result.best_params["m"]) == (1.0, 1.0, 1.0)

    def test_no_bound_test_where_h_is_below_the_float_spacing(self):
        # the range is 1e-5 wide, so h = 1e-17 vanishes next to the bound
        # 0.5000001: testing the bound against itself ended the line there,
        # above the lattice's best, and the hunt stopped 2e-15 short of -0.25
        result = search_min_margin("const", {"c": (0.49999, 0.5000001)}, "eq22", variant="printed", budget=200)
        assert result.best_margin == -0.25
        assert result.evals == 200

    def test_cycles_stop_on_screening_noise(self):
        # c*exp(k x) holds eq4 with equality, so screened margins differ only
        # by quadrature noise: the first refinement cycle lowers the best one
        # by 1.2e-9, below the 1.9e-6 screened quad_err of its first and last
        # best points, and the hunt stops after it, at 267 of its 400 evals,
        # where counting any decrease as improving ran 391
        result = search_min_margin("exp_affine", {"c": (0.25, 2.0), "k": (-1.0, 2.0)}, "eq4", budget=400, seed=7)
        assert result.evals == 267
        assert result.report.verdict == HOLDS
        assert abs(result.best_margin) < 1e-15

    def test_bad_tol(self):
        with pytest.raises(ValueError, match=TOL_ERROR):
            search_min_margin("const", {"c": (0.1, 0.9)}, "eq4", tol=1e-16)
