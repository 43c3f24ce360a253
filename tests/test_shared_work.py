"""Exact work counts: one class check per effective class, one integral per kind.

Class checks are counted at ``hhverify.verify.check_alphas``, integrals at
``hhverify.quadrature.integrate`` and evaluations of f at
``FunctionExpr.evaluate``, the names the verifier reaches them through. A
class check counts twice: once per sampling pass, which serves every alpha
of one (domain, m), and once per (domain, m, alpha) outcome. Screens, the
grid_n 9 calls that judge a pass's alphas first, count apart from full
passes: "screens" and "screened" against "passes" and "outcomes". An
alpha that fails its screen goes to no full pass. A class that
``classify.exact_membership`` decides is neither, so the tests of how
passes are shared use functions that no rule covers (poly_shift, x+1,
x^2+1). Every count is deterministic, so the tests pin exact numbers, and
each one also checks that sharing the work leaves the reports equal to
those computed without it.
"""
import dataclasses
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import hhverify.quadrature
import hhverify.verify
from hhverify import (
    HYP_FAIL,
    HYP_PASS,
    HYP_SKIPPED,
    THEOREMS,
    ClassParams,
    FamilySpec,
    FunctionExpr,
    Interval,
    family_instantiate,
    parse,
    registered_families,
    search_min_margin,
    sweep,
    verify_theorem,
    verify_theorems,
)
from hhverify import classify
from hhverify.classify import DEFAULT_SEED
from hhverify.cli import EXIT_INCONCLUSIVE, EXIT_USAGE, _exit_code, _render, run

GATE_THEOREMS = ("eq4", "eq11", "eq22", "eq31", "eq42")
GRID17 = tuple(i * 2.0 / 16 for i in range(17))
M4 = (0.25, 0.5, 0.75, 1.0)
SCREEN_N = 9  # the tests sample at the default grid_n 33, which a grid_n 9 screen precedes
WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def work(monkeypatch) -> Counter:
    counts: Counter = Counter()
    check, integrate = hhverify.verify.check_alphas, hhverify.quadrature.integrate
    evaluate, effective_class = FunctionExpr.evaluate, hhverify.verify._Theorem.effective_class

    def counted_check(f, domain_upper, m, alphas, **kwargs):
        screen = kwargs["grid_n"] == SCREEN_N
        counts["screens" if screen else "passes"] += 1
        counts["screened" if screen else "outcomes"] += len(alphas)
        return check(f, domain_upper, m, alphas, **kwargs)

    def counted_integrate(*args, **kwargs):
        counts["integrals"] += 1
        return integrate(*args, **kwargs)

    def counted_evaluate(self, x):
        counts["evaluations"] += 1
        return evaluate(self, x)

    def counted_effective_class(self, m, alpha):
        counts["effective_classes"] += 1
        return effective_class(self, m, alpha)

    monkeypatch.setattr(hhverify.verify, "check_alphas", counted_check)
    monkeypatch.setattr(hhverify.quadrature, "integrate", counted_integrate)
    monkeypatch.setattr(FunctionExpr, "evaluate", counted_evaluate)
    monkeypatch.setattr(hhverify.verify._Theorem, "effective_class", counted_effective_class)
    return counts


@pytest.mark.parametrize(
    "f_text,alpha,outcomes,passes",
    [
        ("exp(x^2)", 0.5, 2, 1),  # the m-class and the (alpha, m)-class
        ("exp(x^2)", 1.0, 1, 1),  # both classes are the m-class
        ("x^2+1", 0.5, 2, 0),   # both checks fail on the screen: every report is inconclusive
    ],
)
def test_check_samples_each_effective_class_once(work, capsys, f_text, alpha, outcomes, passes):
    argv = [
        "check", "--theorem", ",".join(GATE_THEOREMS), "--f", f_text, "--a", "0.5", "--b", "1.5",
        "--m", "0.5", "--alpha", str(alpha), "--json", "-",
    ]
    code = run(argv)
    out = capsys.readouterr().out
    # both classes share the domain [0, 1.5 / 0.5], so one screen serves
    # both, and one pass serves those the screen does not fail
    assert (work["screens"], work["screened"]) == (1, outcomes)
    assert (work["passes"], work["outcomes"]) == (passes, outcomes * passes)
    # mean of f, the symmetric kernel and the mixed kernel at m = 0.5,
    # unless every theorem was gated off
    assert work["integrals"] == (3 if f_text == "exp(x^2)" else 0)

    separate = [
        verify_theorem(t, parse(f_text), Interval(0.5, 1.5), m=0.5, alpha=alpha, seed=DEFAULT_SEED)
        for t in GATE_THEOREMS
    ]
    assert out == "[%s]\n" % _render(separate)[0]
    assert code == _exit_code(separate)


def test_check_still_range_checks_alpha_for_theorems_that_ignore_it(work, capsys):
    assert run(["check", "--theorem", "eq4", "--f", "exp(x)", "--alpha", "0"]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err
    with pytest.raises(ValueError):
        verify_theorems(["eq4"], parse("exp(x)"), Interval(0.0, 1.0), alpha=0.0)
    assert work["passes"] == 0 and work["integrals"] == 0


def test_sweep_integrates_once_per_member_and_interval(work):
    family, params = "exp_affine", {"c": 0.25, "k": 0.5}
    summary = sweep(family, {k: (v,) for k, v in params.items()}, GRID17, GRID17, M4, (1.0,),
                    GATE_THEOREMS, hypothesis="once")
    intervals = sum(1 for a in GRID17 for b in GRID17 if a < b)
    assert intervals == 136
    # per interval: mean of f, the symmetric kernel, and the mixed kernel at
    # each m < 1; at alpha 1 with c < 1 the rule passes every class unsampled
    assert work["integrals"] == intervals * (2 + 3)
    assert (work["passes"], work["outcomes"]) == (0, 0)
    assert len(summary.reports) == intervals * len(M4) * len(GATE_THEOREMS)
    assert all(r.hypothesis == HYP_PASS for r in summary.reports)

    spec = FamilySpec(family, params)
    f = family_instantiate(spec)
    fresh = [
        report
        for a in GRID17 for b in GRID17 if a < b
        for m in M4
        for report in verify_theorems(GATE_THEOREMS, f, Interval(a, b), m=m, check_hypothesis=False, family=spec)
    ]
    assert [dataclasses.replace(r, hypothesis=HYP_SKIPPED) for r in summary.reports] == fresh


def test_sweep_evaluates_the_endpoints_once_per_interval_and_m(work):
    a_values, b_values, m_values, alpha_values = (0.0, 0.5), (1.5,), (0.5, 1.0), (0.5, 1.0)
    summary = sweep("exp_linear", {"k": [1.0]}, a_values, b_values, m_values, alpha_values, ("eq22", "eq42"))
    assert len(summary.reports) == len(a_values) * len(m_values) * len(alpha_values) * 2
    # both theorems' integrals inline f, so only the endpoint values reach
    # evaluate: f at a, b, a/m and b/m, once per (interval, m) for both
    # theorems and both alphas
    assert work["evaluations"] == len(a_values) * len(m_values) * 4

    spec = FamilySpec("exp_linear", {"k": 1.0})
    fresh = [
        report
        for a in a_values for b in b_values
        for alpha in alpha_values for m in m_values
        for report in verify_theorems(
            ("eq22", "eq42"), family_instantiate(spec), Interval(a, b), m=m, alpha=alpha,
            check_hypothesis=False, family=spec,
        )
    ]
    assert list(summary.reports) == fresh


def test_per_point_sweep_checks_each_domain_once(work):
    ps, a_values, b_values, m_values = (0.5, 2.0), (0.0, 0.5, 1.0), (1.0, 2.0), (0.5, 1.0)
    summary = sweep("poly_shift", {"p": ps, "q": (1.0,)}, a_values, b_values, m_values, (0.5,), ("eq4", "eq31"),
                    hypothesis="per-point")
    points = len(ps) * 5 * len(m_values)  # five intervals with a < b
    assert len(summary.reports) == 2 * points
    # a check depends on (member, b / m_eff, effective class), not on a:
    # per member, 4 domains for the m-class and 4 for the (alpha, m)-class,
    # and one screen per domain serves both. Only x^2 + 1 on [0, 1] passes
    # its 1-class screen, so that class alone is sampled in full.
    assert (work["screens"], work["screened"]) == (len(ps) * 4, len(ps) * 4 * 2)
    assert (work["passes"], work["outcomes"]) == (1, 1)

    checked_per_point = [
        report
        for p in ps
        for a in a_values for b in b_values if a < b
        for m in m_values
        for report in verify_theorems(
            ("eq4", "eq31"), family_instantiate(FamilySpec("poly_shift", {"p": p, "q": 1.0})), Interval(a, b),
            m=m, alpha=0.5, family=FamilySpec("poly_shift", {"p": p, "q": 1.0}),
        )
    ]
    assert list(summary.reports) == checked_per_point
    assert [r.diagnostics for r in summary.reports] == [r.diagnostics for r in checked_per_point]


@pytest.mark.parametrize(
    "f_text,bad",
    [
        ("1/(1-x)", "(x=0.0, y=2.0, t=0.0): f(1.0) = inf"),
        # the screen meets the pole first at (0.0, 0.5, 0.75); the abort names
        # the first bad value in full-sample order, as it did before the screen
        ("1/(x-0.0625)^2", "(x=0.0, y=0.125, t=0.0): f(0.0625) = inf"),
    ],
    ids=["pole_on_the_screen", "pole_earlier_in_the_full_sample"],
)
def test_an_aborted_pass_gates_every_class_it_serves(work, f_text, bad):
    # eq4 needs the 0.5-class, eq31 and eq42 the (0.5, 0.5)-class: one pass
    # on [0, 4] serves both, and f has a pole on the screen's sample too
    reports = verify_theorems(["eq4", "eq31", "eq42"], parse(f_text), Interval(0, 2), m=0.5, alpha=0.5)
    # the screen's abort decides nothing, and the full pass aborts
    assert (work["screens"], work["screened"]) == (1, 2)
    assert (work["passes"], work["outcomes"], work["integrals"]) == (1, 2, 0)
    assert [(r.verdict, r.hypothesis) for r in reports] == [("inconclusive", HYP_SKIPPED)] * 3
    assert {r.diagnostics for r in reports} == {
        f"class check aborted: evaluation failed at sampled triple {bad} is not strictly positive"
    }


@pytest.mark.parametrize(
    "grid_n,sizes",
    [(2, [2]), (9, [9]), (12, [12]), (16, [16]), (17, [9, 17]), (25, [9, 25]), (33, [9, 33]), (129, [9, 129])],
)
def test_a_screen_runs_where_its_sample_lies_inside_the_full_one(monkeypatch, grid_n, sizes):
    # x^2 + 4 is log-convex on [0, 2], so dr1's class passes the screen,
    # where one runs, and is then sampled in full
    calls = []
    check = hhverify.verify.check_alphas

    def recorded(f, domain_upper, m, alphas, **kwargs):
        calls.append(kwargs["grid_n"])
        return check(f, domain_upper, m, alphas, **kwargs)

    monkeypatch.setattr(hhverify.verify, "check_alphas", recorded)
    report = verify_theorem("dr1", parse("x^2+4"), Interval(0.0, 2.0), grid_n=grid_n)
    assert report.hypothesis == HYP_PASS
    assert calls == sizes


# Negative only in a band about 1e-4 wide at x = 0.61, which the full sample
# on [0, 2] reaches at z = 0.6098837555696451 and the screen does not.
BAND = "(x-0.61)^2+0.000001-0.00001*exp(-((x-0.61)*3000)^2)"


def test_a_screen_fail_outranks_an_abort_that_only_the_full_sample_reaches(work, capsys):
    # The screen fails the 1-class on [0, 2] with a witness at which f is
    # finite and positive, which proves f outside the class. So no full pass
    # runs to meet the negative band: the class reads fail, not skipped, and
    # the report is inconclusive either way.
    argv = ["check", "--f", BAND, "--a", "0", "--b", "2", "--theorem", "eq4"]
    assert run(argv + ["--json", "-"]) == EXIT_INCONCLUSIVE
    report = json.loads(capsys.readouterr().out)
    assert (report["hypothesis"], report["verdict"]) == (HYP_FAIL, "inconclusive")
    assert (work["screens"], work["passes"]) == (1, 0)
    assert run(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.endswith(
        "note (eq4): class check failed on [0, 2.0] at (x=1.6882261578654194, y=0.6059468038799352,"
        " t=0.8100532614799856) with deficit 0.6205634495666298\n"
    )
    # the classify command samples in full, so it still aborts at the band
    assert run(["classify", "--f", BAND, "--domain-upper", "2", "--m", "1"]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().err == (
        "error: evaluation failed at sampled triple (x=0.42192033847689525, y=1.6590060555861437,"
        " t=0.848059504290477): f(0.6098837555696451) = -7.841380206769017e-06 is not strictly positive\n"
    )
    assert (work["screens"], work["passes"]) == (2, 0)  # one screen per check; classify does not pass the gate


def test_a_per_point_sweep_aborts_only_the_domains_where_f_fails(work):
    # exp(300 x) is finite on [0, 1] but overflows on [0, 3]; on [0, 1] it
    # passes the 1-class and fails the (0.5, 1)-class, which eq31 needs at
    # alpha 0.5. The rule decides both there; on [0, 3] f(3) = inf, so the
    # classes are sampled and the pass aborts, as it did before any rule.
    summary = sweep("exp_linear", {"k": (300.0,)}, (0.0,), (1.0, 3.0), (1.0,), (0.5, 1.0), ("eq4", "eq31"),
                    hypothesis="per-point")
    assert (work["screens"], work["screened"], work["passes"], work["outcomes"]) == (1, 2, 1, 2)
    gated = [(r.params.b, r.params.alpha, r.theorem, r.hypothesis, r.verdict) for r in summary.reports]
    assert gated == [
        (1.0, 0.5, "eq4", HYP_PASS, "holds"), (1.0, 0.5, "eq31", HYP_FAIL, "inconclusive"),
        (1.0, 1.0, "eq4", HYP_PASS, "holds"), (1.0, 1.0, "eq31", HYP_PASS, "holds"),
    ] + [(3.0, alpha, theorem, HYP_SKIPPED, "inconclusive") for alpha in (0.5, 1.0) for theorem in ("eq4", "eq31")]
    aborted = {r.diagnostics for r in summary.reports if r.params.b == 3.0}
    assert len(aborted) == 1 and aborted.pop().startswith("class check aborted: ")


def test_a_negative_a_is_refused_before_any_work(work, capsys):
    # the point (0, 1) comes first, and --hypothesis once would check its class first
    argv = ["sweep", "--family", "const", "--param", "c=0.5,1", "--a", "0,-1", "--b", "1", "--theorem", "eq4",
            "--hypothesis", "once"]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: a values must stay >= 0, got [0.0, -1.0]\n")
    assert (work["passes"], work["integrals"], work["evaluations"]) == (0, 0, 0)


def test_an_overflowing_class_domain_aborts_its_check_unsampled(work, capsys):
    # b / m = 2e308 overflows to inf: the 0.5-class is aborted before any
    # sampling, and the report is inconclusive, not a usage error
    assert run(["check", "--f", "1", "--b", "1e308", "--m", "0.5", "--theorem", "eq4"]) == EXIT_INCONCLUSIVE
    assert (work["passes"], work["integrals"]) == (0, 0)
    out = capsys.readouterr().out
    assert "class check aborted: the class domain [0, b / m] overflows at b=1e+308, m=0.5" in out


def test_an_overflowing_class_domain_spares_the_other_passes(work):
    f, iv = parse("x+1"), Interval(0.0, 1e308)
    dr1, eq4 = verify_theorems(["dr1", "eq4"], f, iv, m=0.5)
    # dr1's 1-class on [0, 1e308], which x+1 fails on the screen
    assert (work["screens"], work["passes"]) == (1, 0)
    assert (eq4.hypothesis, eq4.verdict) == (HYP_SKIPPED, "inconclusive")
    alone = verify_theorem("dr1", f, iv)
    assert dr1 == alone and (dr1.hypothesis, dr1.verdict) == (HYP_FAIL, "inconclusive")
    assert dr1.diagnostics == alone.diagnostics and dr1.diagnostics.startswith("class check failed on [0, 1e+308]")


def test_a_once_sweep_aborts_only_the_m_values_that_overflow(work):
    # every member is checked on [0, max(b) / m] = [0, 1e308 / m]; x + 0.5
    # is finite there at m = 1 and fails the 1-class
    summary = sweep("poly_shift", {"p": (1.0,), "q": (0.5,)}, (0.0,), (1.0, 1e308), (1.0, 0.5), (1.0,), ("eq4",),
                    hypothesis="once")
    assert (work["screens"], work["passes"]) == (1, 0)  # the screen fails the one class that is sampled
    assert [(r.params.b, r.params.m, r.hypothesis, r.verdict) for r in summary.reports] == [
        (1.0, 1.0, HYP_FAIL, "inconclusive"), (1.0, 0.5, HYP_SKIPPED, "inconclusive"),
        (1e308, 1.0, HYP_FAIL, "inconclusive"), (1e308, 0.5, HYP_SKIPPED, "inconclusive"),
    ]
    assert {r.diagnostics for r in summary.reports if r.params.m == 0.5} == {
        "class check aborted: the class domain [0, b / m] overflows at b=1e+308, m=0.5"
    }


def _one_pass_per_alpha(f, domain_upper, m, alphas, **kwargs):
    """Each class in a pass of its own, as the verifier sampled before one pass served every alpha."""
    return [classify.check_alpha_m_log_convex(f, domain_upper, ClassParams(m, alpha), **kwargs) for alpha in alphas]


# x^2.5 + 0.5 fails every class on [0, 2 / m]; x^2 + 4 is log-convex on
# [0, 2], so it passes the 1-class there and fails every other class.
@pytest.mark.parametrize("params,in_one_class", [({"p": 2.5, "q": 0.5}, False), ({"p": 2.0, "q": 4.0}, True)])
def test_gated_sweep_member_samples_each_m_once_for_every_alpha(work, params, in_one_class):
    # Per m, the m-class and the classes at alpha 0.5 and 0.75 share the domain [0, 2 / m].
    args = ("poly_shift", {k: (v,) for k, v in params.items()}, GRID17, GRID17, M4, (0.5, 0.75, 1.0), GATE_THEOREMS)
    summary = sweep(*args, hypothesis="once")
    # every fail is found on the screen, and only the 1-class that passes is sampled in full
    assert (work["screens"], work["screened"]) == (4, 12)
    assert (work["passes"], work["outcomes"]) == ((1, 1) if in_one_class else (0, 0))
    # only the reports of the 1-class evaluate their bounds, whose integrals
    # inline f: per interval, the midpoint once for eq11 and f at a, b, a/1 and b/1
    assert work["evaluations"] == (136 * (1 + 4) if in_one_class else 0)
    passed = {(r.theorem, r.params.alpha, r.params.m) for r in summary.reports if r.hypothesis == HYP_PASS}
    one_class = {
        (t, alpha, 1.0) for t in GATE_THEOREMS for alpha in (0.5, 0.75, 1.0) if alpha == 1.0 or t not in ("eq31", "eq42")
    }
    assert passed == (one_class if in_one_class else set())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hhverify.verify, "check_alphas", _one_pass_per_alpha)
        separate = sweep(*args, hypothesis="once")
    assert summary.reports == separate.reports
    assert [r.diagnostics for r in summary.reports] == [r.diagnostics for r in separate.reports]


@pytest.mark.parametrize("family,params,passed", [("const", {"c": 0.6}, 12), ("exp_linear", {"k": 1.5}, 4)])
def test_a_gated_sweep_member_samples_no_pass(work, monkeypatch, family, params, passed):
    # A const member as in the gated acceptance sweep, and an exp_linear one
    # that fails the (alpha, m)-classes with alpha < 1: the rule decides
    # every class, with the sampler's verdict on every report.
    args = (family, {k: (v,) for k, v in params.items()}, GRID17, GRID17, M4, (0.5, 0.75, 1.0), GATE_THEOREMS)
    summary = sweep(*args, hypothesis="once")
    assert (work["screens"], work["passes"], work["outcomes"]) == (0, 0, 0)
    failed = {(r.theorem, r.params.alpha) for r in summary.reports if r.hypothesis == HYP_FAIL}
    assert failed == (set() if family == "const" else {(t, alpha) for t in ("eq31", "eq42") for alpha in (0.5, 0.75)})

    monkeypatch.setattr(hhverify.verify, "exact_membership", lambda *args: None)
    sampled = sweep(*args, hypothesis="once")
    # the screen fails the classes the rule fails, and the full pass judges the ``passed`` others
    assert (work["screens"], work["screened"]) == (4, 12)
    assert (work["passes"], work["outcomes"]) == (4, passed)
    # equal but for the diagnostics of a fail, whose witness is each one's own worst triple
    assert summary.reports == sampled.reports


def test_a_parsed_constant_is_decided_with_the_sampler_s_witness(work, capsys, monkeypatch):
    # `--f 2` parses to the const family's tree. At m < 1 the worst triple
    # is (0, 0, 0), which is also the least of the screen's tied worst
    # triples, so the table's note reads the same.
    argv = ["check", "--f", "2", "--m", "0.5", "--theorem", "eq4,eq22"]
    assert run(argv) == EXIT_INCONCLUSIVE
    decided = capsys.readouterr()
    assert work["passes"] == 0
    assert "class check failed on [0, 2.0] at (x=0.0, y=0.0, t=0.0) with deficit" in decided.out
    monkeypatch.setattr(hhverify.verify, "exact_membership", lambda *args: None)
    assert run(argv) == EXIT_INCONCLUSIVE
    assert (work["screens"], work["passes"]) == (1, 0)
    assert capsys.readouterr() == decided


def test_point_checks_workload_screens_50_passes_and_samples_4_in_full(work, tmp_path, monkeypatch):
    # The benchmark's seed-0 point_checks requests: 160 five-theorem checks,
    # which need the m-class and its (alpha, m)-class, and 40 dr2 chains,
    # which need the plain class. The rule decides every class of the
    # const, exp_linear and exp_affine members; only poly_shift is sampled.
    # Its 50 passes are screened at 2 * 9**3 samples each, and the screens
    # fail 85 of the 91 outcomes; 4 full passes at 2 * 33**3 judge the 6
    # others, 360,396 samples in all. Without the screen the 50 full passes
    # took 3,593,700, and sampling every class 200 passes, 14,374,800.
    spec = importlib.util.spec_from_file_location("hhverify_bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    requests = workloads.build("point_checks", workloads.DEFAULT_SEED, str(tmp_path))
    assert [r.kind for r in requests].count("check") == 160 and len(requests) == 200
    for request in requests:
        run(list(request.argv))
    assert (work["screens"], work["screened"]) == (50, 91)
    assert (work["passes"], work["outcomes"]) == (4, 6)


@pytest.mark.parametrize(
    "theorem,f_text,hypothesis,code,integrals,terms",
    [
        ("dr1", "exp(x^2)", "on", 0, 1, 3),
        ("dr1", "exp(x^2)", "off", 0, 1, 3),
        ("dr1", "1+x", "on", EXIT_INCONCLUSIVE, 1, 3),  # gated off; the table still lists every term
        ("dr1", "(x-0.25)^2", "off", EXIT_INCONCLUSIVE, 1, 0),  # the first integral raises at x = 0.25
        ("dr2", "exp(x^2)", "on", 0, 3, 6),
        ("dr2", "exp(x^2)", "off", 0, 3, 6),
        ("dr2", "1+x", "on", EXIT_INCONCLUSIVE, 3, 6),
        ("dr2", "(x-0.25)^2", "off", EXIT_INCONCLUSIVE, 1, 0),
    ],
)
def test_chain_evaluates_the_chain_once(work, capsys, theorem, f_text, hypothesis, code, integrals, terms):
    argv = ["chain", "--theorem", theorem, "--f", f_text, "--hypothesis", hypothesis, "--json", "-"]
    assert run(argv) == code
    assert work["integrals"] == integrals
    # one screen where the hypothesis is on; 1+x fails it, exp(x^2) is then sampled in full
    assert (work["screens"], work["screened"]) == ((1, 1) if hypothesis == "on" else (0, 0))
    sampled = hypothesis == "on" and f_text == "exp(x^2)"
    assert (work["passes"], work["outcomes"]) == ((1, 1) if sampled else (0, 0))
    out, err = capsys.readouterr()
    if terms:
        assert len(json.loads(out)["terms"]) == terms
    else:
        assert out == ""
        assert err == "error: integrand failed at x=0.25: value 0.0 is not strictly positive at x=0.25\n"


@pytest.mark.parametrize("theorem,integrals", [("dr1", 1), ("dr2", 3)])
def test_a_gated_chain_lists_its_terms_from_one_run_of_its_integrals(work, capsys, theorem, integrals):
    # 1+x is not log-convex, so the class check's screen keeps the driver
    # from evaluating the chain; the command then takes the terms from one
    # ungated run of the same driver
    argv = ["chain", "--theorem", theorem, "--f", "1+x", "--json", "-"]
    assert run(argv) == EXIT_INCONCLUSIVE
    assert (work["screens"], work["passes"], work["integrals"]) == (1, 0, integrals)
    assert work["evaluations"] == 5  # the midpoint, and f at a, b, a/m and b/m for m = 1
    payload = json.loads(capsys.readouterr().out)
    ungated = verify_theorem(theorem, parse("1+x"), Interval(0.0, 1.0), check_hypothesis=False)
    assert [term["value"] for term in payload["terms"]] == [term.value for term in ungated.terms]
    assert payload["report"]["verdict"] == "inconclusive"


def test_the_midpoint_is_evaluated_once_per_interval(monkeypatch):
    abscissae = []
    evaluate = FunctionExpr.evaluate

    def recorded(self, x):
        abscissae.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(FunctionExpr, "evaluate", recorded)
    theorems, m_values, alpha_values = ("eq11", "dr1", "dr2"), (0.5, 1.0), (0.5, 1.0)
    summary = sweep("exp_linear", {"k": [1.0]}, (0.0,), (1.0,), m_values, alpha_values, theorems)
    # eq11 at each (alpha, m) and both chains read f(0.5) once; the chains'
    # endpoint record at m = 1 holds f at 0, 1, 0/1 and 1/1
    assert abscissae == [0.5, 0.0, 1.0, 0.0, 1.0]
    monkeypatch.setattr(FunctionExpr, "evaluate", evaluate)
    f = family_instantiate(FamilySpec("exp_linear", {"k": 1.0}))
    fresh = [
        report
        for alpha in alpha_values for m in m_values
        for report in verify_theorems(
            theorems, f, Interval(0.0, 1.0), m=m, alpha=alpha, check_hypothesis=False,
            family=FamilySpec("exp_linear", {"k": 1.0}),
        )
    ]
    assert list(summary.reports) == fresh
    assert [r.terms for r in summary.reports] == [r.terms for r in fresh]


@pytest.mark.parametrize("theorems", [("eq4", "eq22", "dr1", "dr2"), ("dr1", "dr2")])
def test_chains_share_the_integrals_of_the_bounds(work, theorems):
    f = parse("exp(x)")
    shared = verify_theorems(theorems, f, Interval(0.0, 1.0), check_hypothesis=False)
    # the mean of f, of the symmetric kernel and of ln f, once each
    assert work["integrals"] == 3
    alone = [verify_theorem(t, f, Interval(0.0, 1.0), check_hypothesis=False) for t in theorems]
    assert shared == alone
    assert [(r.diagnostics, r.terms) for r in shared] == [(r.diagnostics, r.terms) for r in alone]


@pytest.mark.parametrize("theorems", [("dr1", "dr2", "eq4", "eq22"), THEOREMS])
@pytest.mark.parametrize("hypothesis", ["off", "per-point"])
def test_sweep_computes_the_chain_integrals_once_per_interval(work, hypothesis, theorems):
    # exp(kx) with k > 0 is in every m-class but in no (alpha, m)-class with
    # alpha < 1, so at alpha 0.5 eq31 and eq42 fail their class checks
    ks, a_values, b_values, m_values, alpha_values = (0.5, 2.0), (0.0, 0.5), (1.0, 2.0), (0.5, 1.0), (0.5, 1.0)
    summary = sweep("exp_linear", {"k": ks}, a_values, b_values, m_values, alpha_values, theorems,
                    hypothesis=hypothesis)
    # one effective class per (theorem, alpha, m) for each member, not per report
    assert work["effective_classes"] == len(ks) * len(alpha_values) * len(m_values) * len(theorems)
    intervals = len(ks) * len(a_values) * len(b_values)
    # chains do not depend on (alpha, m): mean of f, the symmetric kernel
    # and the mean of ln f, once per member and interval, and the mixed
    # kernel at m = 0.5 for eq11
    assert work["integrals"] == intervals * (3 if len(theorems) == 4 else 4)
    assert len(summary.reports) == intervals * len(alpha_values) * len(m_values) * len(theorems)
    failed = {r.theorem for r in summary.reports if r.hypothesis == HYP_FAIL}
    assert failed == ({"eq31", "eq42"} & set(theorems) if hypothesis == "per-point" else set())

    fresh = [
        report
        for k in ks
        for a in a_values for b in b_values
        for alpha in alpha_values for m in m_values
        for report in verify_theorems(
            theorems, family_instantiate(FamilySpec("exp_linear", {"k": k})), Interval(a, b),
            m=m, alpha=alpha, check_hypothesis=hypothesis == "per-point", family=FamilySpec("exp_linear", {"k": k}),
        )
    ]
    assert list(summary.reports) == fresh
    assert [(r.diagnostics, r.terms) for r in summary.reports] == [(r.diagnostics, r.terms) for r in fresh]


@pytest.mark.parametrize(
    "family,box,theorem,budget",
    [
        ("exp_affine", {"c": (0.5, 2.0), "k": (-1.0, 1.0), "m": (0.25, 1.0), "alpha": (0.25, 1.0)}, "eq31", 12),
        ("const", {"c": (0.1, 0.9), "b": (0.5, 2.0)}, "eq22", 12),
        ("poly_shift", {"p": (0.5, 3.0), "q": (0.1, 1.0)}, "dr2", 12),
        # refinement lines along alpha and m, ranked at the screening tolerance
        ("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0), "alpha": (0.5, 1.0), "m": (0.5, 1.0)}, "eq42", 200),
    ],
)
def test_search_reports_what_verify_theorem_reports_at_its_best_point(family, box, theorem, budget):
    _assert_verify_theorem_reports(search_min_margin(family, box, theorem, budget=budget), family, theorem, 1e-10)


@pytest.mark.parametrize("tol", [1e-6, 1e-5])  # no finer than the screening tolerance
@pytest.mark.parametrize(
    "family,box,fixed,theorem,budget",
    [
        ("const", {"c": (0.1, 0.9), "b": (0.5, 2.0)}, {}, "eq22", 12),
        ("poly_shift", {"p": (0.5, 3.0), "q": (0.1, 1.0)}, {}, "dr2", 12),
        ("poly_shift", {"p": (1.0, 3.0), "q": (0.05, 1.0), "alpha": (0.5, 1.0), "m": (0.5, 1.0)}, {}, "eq42", 60),
        # boxes with no dimensions: one point, computed once
        ("exp_affine", {}, {"c": 0.5, "k": -1.0, "m": 0.5, "alpha": 0.75, "b": 2.0}, "eq31", 12),
        ("const", {}, {"c": 0.5, "a": 0.5, "b": 2.0}, "eq22", 12),
    ],
)
def test_search_at_a_screening_tol_reports_what_verify_theorem_reports(family, box, fixed, theorem, budget, tol):
    result = search_min_margin(family, box, theorem, budget=budget, tol=tol, fixed=fixed)
    if not box:
        assert result.evals == 1
    _assert_verify_theorem_reports(result, family, theorem, tol)


def _assert_verify_theorem_reports(result, family: str, theorem: str, tol: float) -> None:
    assert result.best_margin == result.report.margin
    point = result.best_params
    spec = FamilySpec(family, {name: point[name] for name in registered_families()[family]})
    again = verify_theorem(
        theorem, family_instantiate(spec), Interval(point["a"], point["b"]), m=point["m"], alpha=point["alpha"],
        tol=tol, check_hypothesis=False, family=spec,
    )
    assert result.report == again
    assert (result.report.diagnostics, result.report.terms) == (again.diagnostics, again.terms)


_AT_ZERO = "integrand failed at x=0: math domain error at x=0"
_AT_QUARTER = "integrand failed at x=0.25: value 0.0 is not strictly positive at x=0.25"


@pytest.mark.parametrize(
    "f_text,diagnostics",
    [
        # the chains integrate first, except dr2, which reads f(a) and f(b)
        # before its integrals
        ("(x-0.25)^2", [_AT_QUARTER] * 5),
        ("ln(x-0.5)", [_AT_ZERO, _AT_ZERO, "math domain error at x=0", _AT_ZERO, _AT_ZERO]),
        ("ln(x)", [_AT_ZERO, _AT_ZERO, "math domain error at x=0", _AT_ZERO, _AT_ZERO]),
    ],
)
def test_a_failing_mixed_request_reports_each_theorem_its_own_first_error(f_text, diagnostics):
    theorems = ["dr1", "eq22", "dr2", "eq4", "eq11"]
    reports = verify_theorems(theorems, parse(f_text), Interval(0, 1), check_hypothesis=False)
    assert [r.verdict for r in reports] == ["inconclusive"] * len(theorems)
    assert [r.diagnostics for r in reports] == diagnostics
    alone = [verify_theorem(t, parse(f_text), Interval(0, 1), check_hypothesis=False) for t in theorems]
    assert [r.diagnostics for r in alone] == diagnostics


def test_search_integrates_once_per_member_and_interval_along_alpha_and_m(work):
    box = {"alpha": (0.25, 1.0), "c": (0.2, 1.0), "k": (0.5, 2.0), "m": (0.25, 1.0)}
    result = search_min_margin("exp_affine", box, "eq31", budget=200, seed=0)
    assert result.evals == 200
    # eq31 needs the mean of f alone. The 100 lattice points are 100 members;
    # the refinement's lines along alpha and m keep the member and [a, b]
    # and read the previous point's integral, those along c and k do not;
    # the best point is then integrated once more at tol. Lines that end on
    # their range bound after a few evals leave more of the budget to lines
    # along c and k
    assert work["integrals"] == 188


@pytest.mark.parametrize(
    "points",
    [
        [(0.0, 0.0), (-0.0, 0.0), (-0.0, 0.0), (0.0, 0.0)],  # (k, a): k flips sign
        [(0.0, 0.0), (0.0, -0.0), (0.0, -0.0), (0.0, 0.0)],  # a flips sign
    ],
)
def test_search_shares_a_cache_only_between_bit_identical_points(work, points):
    # a point reuses the last point's integrals when the family values, a
    # and b have the same bits, so 0.0 and -0.0 are told apart
    f = family_instantiate(FamilySpec("exp_linear", {"k": 0.0}))
    reuse: dict = {}
    for k, a in points:
        list(hhverify.verify._reports(
            ["eq4"], f, (("k", k),), [Interval(a, 1.0)], [1.0], [1.0],
            variant="corrected", tol=1e-10, sampling=None, reuse=reuse,
        ))
    assert work["integrals"] == 3
    assert len(reuse) == 1


def test_a_carried_cache_is_not_read_at_another_tolerance(work):
    # search ranks points at a coarse tolerance and recomputes its best at
    # tol through the same dict: that must integrate again, not report the
    # coarse integral as if it were computed at tol
    f = family_instantiate(FamilySpec("exp_linear", {"k": 3.0}))
    reuse: dict = {}

    def report(tol, carried):
        return next(hhverify.verify._reports(
            ["eq4"], f, (("k", 3.0),), [Interval(0.0, 1.0)], [1.0], [1.0],
            variant="corrected", tol=tol, sampling=None, reuse=carried,
        ))

    coarse, fine = report(1e-6, reuse), report(1e-10, reuse)
    assert work["integrals"] == 2
    assert len(reuse) == 1
    assert fine == report(1e-10, None) and coarse == report(1e-6, None)
    assert fine.quad_err != coarse.quad_err


def test_a_cache_carried_along_m_keeps_only_the_current_m():
    f = family_instantiate(FamilySpec("const", {"c": 0.5}))
    reuse: dict = {}
    for i in range(50):
        m = 0.25 + i / 100
        reports = list(hhverify.verify._reports(
            ["eq4", "eq11"], f, (("c", 0.5),), [Interval(0.0, 1.0)], [1.0], [m],
            variant="corrected", tol=1e-10, sampling=None, reuse=reuse,
        ))
        assert [r.verdict for r in reports] == ["holds", "holds"]
    (cache,) = reuse.values()
    # the mean of f, the midpoint, and the endpoints and the mixed kernel at the last m
    assert sorted(cache._store) == [("endpoints", m), ("mean_f", None), ("midpoint", None), ("mixed_geometric", m)]
