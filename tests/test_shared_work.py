"""Exact work counts: one class check per effective class, one integral per kind.

Class checks are counted at ``hhverify.verify.check_alpha_m_log_convex``,
integrals at ``hhverify.quadrature.integrate`` and evaluations of f at
``FunctionExpr.evaluate``, the names the verifier reaches them through.
Every count is deterministic, so the tests pin exact numbers, and each one
also checks that sharing the work leaves the reports equal to those
computed without it.
"""
import dataclasses
import json
from collections import Counter

import pytest

import hhverify.quadrature
import hhverify.verify
from hhverify import (
    HYP_PASS,
    HYP_SKIPPED,
    FamilySpec,
    FunctionExpr,
    Interval,
    family_instantiate,
    parse,
    sweep,
    verify_theorem,
    verify_theorems,
)
from hhverify.classify import DEFAULT_SEED
from hhverify.cli import EXIT_INCONCLUSIVE, EXIT_USAGE, _exit_code, _ReportText, run

GATE_THEOREMS = ("eq4", "eq11", "eq22", "eq31", "eq42")
GRID17 = tuple(i * 2.0 / 16 for i in range(17))
M4 = (0.25, 0.5, 0.75, 1.0)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("HH_SEED", raising=False)


@pytest.fixture
def work(monkeypatch) -> Counter:
    counts: Counter = Counter()
    check, integrate = hhverify.verify.check_alpha_m_log_convex, hhverify.quadrature.integrate
    evaluate = FunctionExpr.evaluate

    def counted_check(*args, **kwargs):
        counts["class_checks"] += 1
        return check(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        counts["integrals"] += 1
        return integrate(*args, **kwargs)

    def counted_evaluate(self, x):
        counts["evaluations"] += 1
        return evaluate(self, x)

    monkeypatch.setattr(hhverify.verify, "check_alpha_m_log_convex", counted_check)
    monkeypatch.setattr(hhverify.quadrature, "integrate", counted_integrate)
    monkeypatch.setattr(FunctionExpr, "evaluate", counted_evaluate)
    return counts


@pytest.mark.parametrize(
    "f_text,alpha,class_checks",
    [
        ("exp(x)", 0.5, 2),  # the m-class and the (alpha, m)-class
        ("exp(x)", 1.0, 1),  # both classes are the m-class
        ("x^2+1", 0.5, 2),   # both checks fail: every report is inconclusive
    ],
)
def test_check_samples_each_effective_class_once(work, capsys, f_text, alpha, class_checks):
    argv = [
        "check", "--theorem", ",".join(GATE_THEOREMS), "--f", f_text, "--a", "0.5", "--b", "1.5",
        "--m", "0.5", "--alpha", str(alpha), "--json", "-",
    ]
    code = run(argv)
    out = capsys.readouterr().out
    assert work["class_checks"] == class_checks
    # mean of f, the symmetric kernel and the mixed kernel at m = 0.5,
    # unless every theorem was gated off
    assert work["integrals"] == (3 if f_text == "exp(x)" else 0)

    separate = [
        verify_theorem(t, parse(f_text), Interval(0.5, 1.5), m=0.5, alpha=alpha, seed=DEFAULT_SEED)
        for t in GATE_THEOREMS
    ]
    assert out == "[%s]\n" % ",".join(map(_ReportText().json, separate))
    assert code == _exit_code(separate)


def test_check_still_range_checks_alpha_for_theorems_that_ignore_it(work, capsys):
    assert run(["check", "--theorem", "eq4", "--f", "exp(x)", "--alpha", "0"]) == EXIT_USAGE
    assert "alpha" in capsys.readouterr().err
    with pytest.raises(ValueError):
        verify_theorems(["eq4"], parse("exp(x)"), Interval(0.0, 1.0), alpha=0.0)
    assert work["class_checks"] == 0 and work["integrals"] == 0


def test_sweep_integrates_once_per_member_and_interval(work):
    family, params = "exp_affine", {"c": 0.25, "k": 0.5}
    summary = sweep(family, {k: (v,) for k, v in params.items()}, GRID17, GRID17, M4, (1.0,),
                    GATE_THEOREMS, hypothesis="once")
    intervals = sum(1 for a in GRID17 for b in GRID17 if a < b)
    assert intervals == 136
    # per interval: mean of f, the symmetric kernel, and the mixed kernel at
    # each m < 1; one class check per m on [0, 2 / m]
    assert work["integrals"] == intervals * (2 + 3)
    assert work["class_checks"] == len(M4)
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
    ks, a_values, b_values, m_values = (0.5, 2.0), (0.0, 0.5, 1.0), (1.0, 2.0), (0.5, 1.0)
    summary = sweep("exp_linear", {"k": ks}, a_values, b_values, m_values, (0.5,), ("eq4", "eq31"),
                    hypothesis="per-point")
    points = len(ks) * 5 * len(m_values)  # five intervals with a < b
    assert len(summary.reports) == 2 * points
    # a check depends on (member, b / m_eff, effective class), not on a:
    # per member, 4 domains for the m-class and 4 for the (alpha, m)-class
    assert work["class_checks"] == len(ks) * 4 * 2

    checked_per_point = [
        report
        for k in ks
        for a in a_values for b in b_values if a < b
        for m in m_values
        for report in verify_theorems(
            ("eq4", "eq31"), family_instantiate(FamilySpec("exp_linear", {"k": k})), Interval(a, b),
            m=m, alpha=0.5, family=FamilySpec("exp_linear", {"k": k}),
        )
    ]
    assert list(summary.reports) == checked_per_point
    assert [r.diagnostics for r in summary.reports] == [r.diagnostics for r in checked_per_point]


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
    assert work["class_checks"] == (1 if hypothesis == "on" else 0)
    out, err = capsys.readouterr()
    if terms:
        assert len(json.loads(out)["terms"]) == terms
    else:
        assert out == ""
        assert err == "error: integrand failed at x=0.25: value 0.0 is not strictly positive at x=0.25\n"
