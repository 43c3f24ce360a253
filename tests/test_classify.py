import math

import pytest

from hhverify import (
    ClassParams,
    SampleEvaluationError,
    check_alpha_m_log_convex,
    parse,
)


def scalar_rhs(f, x, y, t, m, alpha):
    """Reference right side of the defining inequality, straight from the definition."""
    ta = t**alpha
    return math.exp(ta * math.log(f.evaluate(x)) + m * (1.0 - ta) * math.log(f.evaluate(y)))


def test_exp_is_m_log_convex():
    report = check_alpha_m_log_convex(parse("exp(x)"), 2.0, ClassParams(0.5))
    assert report.verdict == "pass"
    assert report.worst_violation is None


def test_small_constant_is_m_log_convex():
    assert check_alpha_m_log_convex(parse("0.5"), 2.0, ClassParams(0.7)).verdict == "pass"


def test_sample_count_is_twice_grid_cubed():
    report = check_alpha_m_log_convex(parse("exp(x)"), 1.0, ClassParams(1.0), grid_n=9)
    assert report.samples == 2 * 9**3


def test_shifted_square_fails_and_witness_replays():
    f = parse("x^2+1")
    report = check_alpha_m_log_convex(f, 2.0, ClassParams(1.0))
    assert report.verdict == "fail"
    w = report.worst_violation
    assert w is not None
    # replay the reported triple through scalar evaluation
    lhs = f.evaluate(w.t * w.x + (1.0 - w.t) * w.y)
    assert lhs == pytest.approx(w.lhs, rel=1e-12)
    assert lhs > scalar_rhs(f, w.x, w.y, w.t, 1.0, 1.0) * (1.0 + 1e-9)
    assert w.deficit == pytest.approx(w.lhs - w.rhs, rel=1e-12)


def test_exp_fails_for_alpha_below_one():
    f = parse("exp(x)")
    report = check_alpha_m_log_convex(f, 2.0, ClassParams(m=1.0, alpha=0.5))
    assert report.verdict == "fail"
    w = report.worst_violation
    assert w.x < w.y
    assert w.lhs > scalar_rhs(f, w.x, w.y, w.t, 1.0, 0.5) * (1.0 + 1e-9)


def test_refinement_keeps_failing():
    verdicts = [
        check_alpha_m_log_convex(parse("x^2+1"), 2.0, ClassParams(1.0), grid_n=n).verdict
        for n in (17, 33, 65)
    ]
    assert verdicts == ["fail", "fail", "fail"]


def test_deterministic_reports():
    f = parse("x^2+1")
    params = ClassParams(1.0)
    assert check_alpha_m_log_convex(f, 2.0, params) == check_alpha_m_log_convex(f, 2.0, params)


def test_seed_changes_random_block_only():
    f = parse("exp(x)")
    a = check_alpha_m_log_convex(f, 2.0, ClassParams(0.5), seed=1)
    b = check_alpha_m_log_convex(f, 2.0, ClassParams(0.5), seed=2)
    assert a.verdict == b.verdict == "pass"
    assert a.samples == b.samples


def test_overflowing_function_reports_offending_triple():
    with pytest.raises(SampleEvaluationError) as info:
        check_alpha_m_log_convex(parse("exp(x^2)"), 40.0, ClassParams(1.0))
    x, y, t = info.value.triple
    assert 0.0 <= x <= 40.0 and 0.0 <= y <= 40.0 and 0.0 <= t <= 1.0


@pytest.mark.parametrize("m,alpha", [(0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 1.5), (-0.5, 0.5)])
def test_class_params_validation(m, alpha):
    with pytest.raises(ValueError):
        ClassParams(m=m, alpha=alpha)


def test_domain_upper_must_be_positive():
    with pytest.raises(ValueError):
        check_alpha_m_log_convex(parse("exp(x)"), 0.0, ClassParams(1.0))
