import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from hhverify import (
    ClassParams,
    ClassificationReport,
    FamilySpec,
    SampleEvaluationError,
    Violation,
    check_alpha_m_log_convex,
    family_instantiate,
    parse,
)
from hhverify import classify
from hhverify.classify import MAX_GRID_N
from hhverify.funcspec import Binary, Const, FunctionExpr, Unary, Var
from hhverify.cli import EXIT_INCONCLUSIVE, run


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


def test_a_right_side_next_to_overflow_warns_nothing():
    # rhs * (1 + tol_rel) overflows to inf at the largest float, which only
    # means no violation there; the test run turns any warning into an error.
    report = check_alpha_m_log_convex(parse("1.7976931348623157e308"), 1.0, ClassParams(1.0))
    assert report.verdict == "pass"


@pytest.mark.parametrize("m,alpha", [(0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 1.5), (-0.5, 0.5)])
def test_class_params_validation(m, alpha):
    with pytest.raises(ValueError):
        ClassParams(m=m, alpha=alpha)


def test_domain_upper_must_be_positive():
    with pytest.raises(ValueError):
        check_alpha_m_log_convex(parse("exp(x)"), 0.0, ClassParams(1.0))


# ---------------------------------------------------------------------------
# the chunked, factored checker against the one-block algorithm it replaced


def _reference_eval_checked(f, pts, x, y, t):
    values = f.evaluate_array(pts)
    bad = ~np.isfinite(values) | (values <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SampleEvaluationError(
            (float(x[i]), float(y[i]), float(t[i])),
            f"f({float(pts[i])!r}) = {float(values[i])!r} is not strictly positive",
        )
    return values


def reference_check(f, domain_upper, params, grid_n, tol_rel, seed=classify.DEFAULT_SEED):
    """The checker as one block: every sample drawn, evaluated and compared at once."""
    m, alpha = params.m, params.alpha
    base = np.arange(grid_n, dtype=float) / (grid_n - 1)
    axis = domain_upper * base
    gx, gy, gt = (arr.ravel() for arr in np.meshgrid(axis, axis, base, indexing="ij"))
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((grid_n**3, 3))
    x = np.concatenate([gx, domain_upper * u[:, 0]])
    y = np.concatenate([gy, domain_upper * u[:, 1]])
    t = np.concatenate([gt, u[:, 2]])
    t_alpha = t if alpha == 1.0 else t**alpha
    z = t * x + m * (1.0 - t) * y
    lhs = _reference_eval_checked(f, z, x, y, t)
    fx = _reference_eval_checked(f, x, x, y, t)
    fy = _reference_eval_checked(f, y, x, y, t)
    with np.errstate(over="ignore"):
        rhs = np.exp(t_alpha * np.log(fx) + m * (1.0 - t_alpha) * np.log(fy))
    violating = lhs > rhs * (1.0 + tol_rel)
    if not violating.any():
        return ClassificationReport(verdict="pass", samples=int(x.size))
    deficit = lhs - rhs
    worst = np.max(deficit[violating])
    ties = np.flatnonzero(violating & (deficit == worst))
    i = int(ties[np.lexsort((t[ties], y[ties], x[ties]))[0]])
    violation = Violation(
        float(x[i]), float(y[i]), float(t[i]), float(lhs[i]), float(rhs[i]), float(deficit[i])
    )
    return ClassificationReport(verdict="fail", samples=int(x.size), worst_violation=violation)


def _outcome(check, *args):
    """A report's repr (so -0.0 differs from 0.0), or the error's text and triple."""
    try:
        return repr(check(*args))
    except SampleEvaluationError as err:
        return str(err), err.triple


_MEMBERS = [
    family_instantiate(FamilySpec(name, params))
    for name, params in [
        ("const", {"c": 0.5}),
        ("const", {"c": 2.0}),  # m < 1: every t = 0 grid triple ties for the worst deficit
        ("exp_linear", {"k": 1.5}),
        ("exp_linear", {"k": -0.7}),
        ("exp_affine", {"c": 0.3, "k": 2.0}),
        ("poly_shift", {"p": 2.5, "q": 0.5}),
        ("poly_shift", {"p": 0.5, "q": 1.0}),
    ]
]
_FAILING = [parse(text) for text in ("ln(x)", "x-0.5", "1/(x-0.3)", "exp(x^2)", "x^2+1")]
_unit_or_random = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0))


# At grid_n 17 and 33, 200 splits x-planes into runs of rows and the
# default holds several whole x-planes; 16 makes every grid chunk of
# grid_n >= 9 a single row; at grid_n 9, 170 holds two whole x-planes of 81
# triples, so the last of the 9 planes is a partial group.
_CHUNKS = pytest.mark.parametrize(
    "chunk",
    [classify.CHUNK, 200, 16, 170],
    ids=["default_chunk", "mid_plane", "row_chunks", "several_planes"],
)


@_CHUNKS
@settings(deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(_MEMBERS), st.sampled_from([1.0, 2.0, 3.5])),
        st.tuples(st.sampled_from(_FAILING), st.just(40.0)),
    ),
    grid_n=st.sampled_from([2, 3, 5, 9, 17, 33]),
    m=_unit_or_random,
    alpha=_unit_or_random,
    tol_rel=st.sampled_from([0.0, 1e-9]),
)
def test_matches_one_block_reference(chunk, case, grid_n, m, alpha, tol_rel):
    f, domain_upper = case
    args = (f, domain_upper, ClassParams(m, alpha), grid_n, tol_rel)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "CHUNK", chunk)
        assert _outcome(check_alpha_m_log_convex, *args) == _outcome(reference_check, *args)


def _outcomes_of_one_pass(f, domain_upper, m, alphas, grid_n, tol_rel):
    """The reports' reprs, one per alpha, or the error's text and triple once for each."""
    try:
        reports = classify.check_alphas(f, domain_upper, m, alphas, grid_n=grid_n, tol_rel=tol_rel)
    except SampleEvaluationError as err:
        return [(str(err), err.triple)] * len(alphas)
    assert len(reports) == len(alphas)
    return [repr(report) for report in reports]


@_CHUNKS
@settings(deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from(_MEMBERS), st.sampled_from([1.0, 2.0, 3.5])),
        st.tuples(st.sampled_from(_FAILING), st.just(40.0)),
    ),
    grid_n=st.sampled_from([2, 3, 5, 9, 17, 33]),
    m=_unit_or_random,
    # with 1.0 and repeats, as the effective classes of one request have them
    alphas=st.lists(st.one_of(_unit_or_random, st.sampled_from([0.5, 0.75])), min_size=1, max_size=3),
    tol_rel=st.sampled_from([0.0, 1e-9]),
)
def test_one_pass_matches_the_reference_for_every_alpha(chunk, case, grid_n, m, alphas, tol_rel):
    f, domain_upper = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "CHUNK", chunk)
        merged = _outcomes_of_one_pass(f, domain_upper, m, alphas, grid_n, tol_rel)
    separate = [_outcome(reference_check, f, domain_upper, ClassParams(m, alpha), grid_n, tol_rel) for alpha in alphas]
    assert merged == separate


# Four families and two failing expressions (the second raises), on coarse
# and default grids, at m < 1 and m = 1, with 1.0, values below 1 and a
# repeat among the alphas, at both tolerances.
_DIGEST_CASES = [
    (family_instantiate(FamilySpec(name, params)), 2.0)
    for name, params in [
        ("const", {"c": 2.0}),
        ("exp_linear", {"k": 1.5}),
        ("exp_affine", {"c": 0.3, "k": -2.0}),
        ("poly_shift", {"p": 2.5, "q": 0.5}),
    ]
] + [(parse("x^2+1"), 40.0), (parse("exp(x^2)"), 40.0)]
# check_alphas over _DIGEST_CASES as pinned before grid chunks became
# blocks of whole t-rows and chunks that cannot beat the worst so far were skipped
CLASS_CHECK_SHA256 = "3872c983b9cc74a729ed9325b6b89ea09aa1ad56782659eaf103db1c4ea4801d"


def test_class_check_digest():
    outcomes = [
        _outcomes_of_one_pass(f, domain_upper, m, (0.5, 1.0, 0.75, 0.5), grid_n, tol_rel)
        for f, domain_upper in _DIGEST_CASES
        for grid_n in (9, 33)
        for m in (0.6, 1.0)
        for tol_rel in (0.0, 1e-9)
    ]
    text = "\n".join(repr(outcome) for outcome in outcomes)
    assert hashlib.sha256(text.encode()).hexdigest() == CLASS_CHECK_SHA256


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, 5e-324], ids=repr)
@pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle", "last"])
def test_first_bad_agrees_with_a_full_scan(bad, where):
    values = np.array([1.0, 2.0, 0.5, 3.0, 1e300, 4.0, 7.0])
    values[where] = bad
    pts = np.linspace(0.0, 1.0, values.size)
    expected = None
    full = ~np.isfinite(values) | (values <= 0.0)
    if full.any():
        i = int(np.argmax(full))
        expected = i, f"f({float(pts[i])!r}) = {float(values[i])!r} is not strictly positive"
    assert classify._first_bad(values, pts) == expected
    assert (expected is None) == (bad == 5e-324)


@pytest.mark.parametrize(
    "m,alphas,message",
    [
        (0.0, [1.0], "m must lie in (0, 1], got 0.0"),
        (0.0, [0.0], "m must lie in (0, 1], got 0.0"),
        (0.5, [1.0, 1.5], "alpha must lie in (0, 1], got 1.5"),
        (0.5, [0.0, 1.5], "alpha must lie in (0, 1], got 0.0"),
    ],
)
def test_one_pass_range_checks_m_then_each_alpha(m, alphas, message):
    with pytest.raises(ValueError) as info:
        classify.check_alphas(_NeverEvaluated(), 1.0, m, alphas)
    assert str(info.value) == message


# At grid_n 9 chunks of 50 triples hold 5 or 4 of an x-plane's 9 rows,
# chunks of 5 one row each, and chunks of 200 two whole x-planes.
_SPLIT_PLANES = pytest.mark.parametrize("chunk", [50, 5, 200], ids=["mid_plane", "row_chunks", "whole_planes"])


@_SPLIT_PLANES
def test_ties_across_chunks_keep_the_least_triple(monkeypatch, chunk):
    # f = 2 at m = 0.5: the deficit depends on t alone, so the t = 0 grid
    # triples of every row tie; the least one sits in the first chunk.
    monkeypatch.setattr(classify, "CHUNK", chunk)
    report = check_alpha_m_log_convex(parse("2"), 2.0, ClassParams(0.5), grid_n=9)
    w = report.worst_violation
    assert (w.x, w.y, w.t) == (0.0, 0.0, 0.0)
    assert repr(report) == repr(reference_check(parse("2"), 2.0, ClassParams(0.5), 9, 1e-9))


@_SPLIT_PLANES
def test_offender_in_a_later_chunk_is_found(monkeypatch, chunk):
    # exp(x^2) overflows only above x = 26.6; at m = 0.3 the x = 0 plane
    # keeps z below 12, so the first bad f(z) lies in a later chunk.
    monkeypatch.setattr(classify, "CHUNK", chunk)
    args = (parse("exp(x^2)"), 40.0, ClassParams(0.3), 9, 1e-9)
    new = _outcome(check_alpha_m_log_convex, *args)
    assert new == _outcome(reference_check, *args)
    assert new[1][0] > 0.0


# At grid_n 2 an x-plane is 2 rows of 2: chunks of 4 are whole planes, of
# 3 one row each, and of 1 (below grid_n) one row or one random triple.
@pytest.mark.parametrize("chunk", [4, 3, 1])
def test_bad_f_x_outranks_an_earlier_bad_f_y(monkeypatch, chunk):
    # f has poles exactly at the x of random triple 5 and the y of random
    # triple 0, and nowhere on the grid or at any z; with chunks of at most
    # 4 the two offenders fall in different chunks, the f(y) one first.
    u = np.random.Generator(np.random.PCG64(classify.DEFAULT_SEED)).random((8, 3))
    x0, y0 = float(u[5, 0]), float(u[0, 1])
    f = parse(f"1/((x-{x0!r})^2*(x-{y0!r})^2)")
    monkeypatch.setattr(classify, "CHUNK", chunk)
    args = (f, 1.0, ClassParams(1.0), 2, 1e-9)
    new = _outcome(check_alpha_m_log_convex, *args)
    assert new == _outcome(reference_check, *args)
    assert new[1] == tuple(map(float, u[5]))


# ---------------------------------------------------------------------------
# bounds on grid_n and on memory


class _NeverEvaluated:
    def evaluate_array(self, xs):
        raise AssertionError("a rejected grid_n must not reach evaluation")


@pytest.mark.parametrize("grid_n", [1, MAX_GRID_N + 1])
def test_grid_n_outside_the_cap_is_refused_before_any_work(grid_n):
    with pytest.raises(ValueError) as info:
        check_alpha_m_log_convex(_NeverEvaluated(), 1.0, ClassParams(1.0), grid_n=grid_n)
    assert str(info.value) == f"grid_n must lie in [2, {MAX_GRID_N}], got {grid_n}"


def test_largest_grid_n_runs():
    assert MAX_GRID_N == 257
    report = check_alpha_m_log_convex(parse("exp(x)"), 1.0, ClassParams(1.0), grid_n=MAX_GRID_N)
    assert report.verdict == "pass"
    assert report.samples == 2 * MAX_GRID_N**3


def _peak_bytes(grid_n, alphas):
    f = parse("x^2+1")
    tracemalloc.start()
    try:
        classify.check_alphas(f, 2.0, 0.5, alphas, grid_n=grid_n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_bounded_by_the_chunk():
    # One block needed 61.5 MB at grid_n 65 and about 200 MB at 97. One
    # class, and the three alphas that the gated const sweeps check in one pass.
    for alphas in [(0.7,), (0.5, 0.75, 1.0)]:
        peak65, peak97 = _peak_bytes(65, alphas), _peak_bytes(97, alphas)
        assert peak65 < 32e6 and peak97 < 32e6
        assert peak97 <= 1.1 * peak65
        assert peak65 < 2e6 and peak97 < 2e6
        # Grid chunks are broadcast from per-axis slices, so even here the
        # peak stays below 0.8 MB.
        assert _peak_bytes(MAX_GRID_N, alphas) < 4e6


class _RecordingSizes:
    """Wraps a FunctionExpr and records the size of every evaluate_array call."""

    def __init__(self, f):
        self.f = f
        self.root = f.root
        self.sizes = []

    def evaluate_array(self, xs):
        self.sizes.append(np.size(xs))
        return self.f.evaluate_array(xs)


@pytest.mark.parametrize("grid_n", [2, 33, 97, MAX_GRID_N])
def test_every_evaluation_is_at_most_one_chunk(grid_n):
    f = _RecordingSizes(parse("exp(x)"))
    report = check_alpha_m_log_convex(f, 2.0, ClassParams(0.5), grid_n=grid_n)
    assert report.samples == 2 * grid_n**3
    assert max(f.sizes) <= max(classify.CHUNK, grid_n)
    # f(axis) once, f(z) at every grid triple, f(x), f(y), f(z) at every random one
    assert sum(f.sizes) == grid_n + 4 * grid_n**3


# ---------------------------------------------------------------------------
# an exact membership oracle for three families
#
# In log space the class inequality reads
#     ln f(t*x + m*(1-t)*y) <= t**alpha * ln f(x) + m*(1 - t**alpha) * ln f(y).
# For f = c*exp(kx), the const (k = 0), exp_linear (c = 1) and exp_affine
# members, the left side less the right is
#     (1 - m)*(1 - t**alpha)*ln c + k*(t - t**alpha)*(x - m*y),
# affine in (x, y) through x - m*y, which ranges over [-m*B, B] on
# [0, B]**2. So at every t the worst (x, y) is (0, B) or (B, 0). Along t
# each of the two is a(1 - t**alpha) + s(t**alpha - t), concave where
# s > a and convex elsewhere, so its largest value is at t = 0, at t = 1
# or where a golden-section search for an interior peak ends. The oracle
# takes the largest of these, in mpmath at 50 digits, without the rule's
# closed-form peak.

# Log-deficits at or below this are left out of the fail assertion: within
# about tol_rel = 1e-9 the sampler rightly passes, and above it may sample
# the peak of t**alpha - t slightly off. Measured on 600 draws with
# deficits log-uniform in [1e-12, 1e-5]: every draw above 1e-9 failed and
# every draw below passed.
THIN_LOG_DEFICIT = 1e-8
# Log-deficits at or below this, a tenth of tol_rel, pass every check: float
# rounding moves lhs/rhs by about 1e-14 here, and 50 digits by about 1e-50.
PASSING_LOG_DEFICIT = 1e-10
_unit_interval = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
_open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _log_deficit(ln_c, k, m, alpha, x, y, t):
    """ln lhs - ln rhs of the class inequality for c*exp(kx) at (x, y, t), in mpmath at the working precision."""
    t_alpha = t**alpha
    return ln_c + k * (t * x + m * (1 - t) * y) - t_alpha * (ln_c + k * x) - m * (1 - t_alpha) * (ln_c + k * y)


def _worst_log_deficit(c, k, m, alpha, upper):
    """The largest log-deficit of c*exp(kx) over [0, upper]**2 x [0, 1], in mpmath at 50 digits."""
    with mpmath.workdps(50):
        ln_c, k, m, alpha, upper = (mpmath.log(c), *(mpmath.mpf(v) for v in (k, m, alpha, upper)))
        worst, shrink = -mpmath.inf, 1 / mpmath.phi
        for x, y in ((0, upper), (upper, 0)):
            def g(t):
                return _log_deficit(ln_c, k, m, alpha, x, y, t)

            # golden section, one new value a step; the bracket ends narrower than 1e-17
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            t1, t2 = hi - (hi - lo) * shrink, lo + (hi - lo) * shrink
            g1, g2 = g(t1), g(t2)
            for _ in range(80):
                if g1 > g2:
                    hi, t2, g2 = t2, t1, g1
                    t1 = hi - (hi - lo) * shrink
                    g1 = g(t1)
                else:
                    lo, t1, g1 = t1, t2, g2
                    t2 = lo + (hi - lo) * shrink
                    g2 = g(t2)
            worst = max(worst, g(mpmath.mpf(0)), g(mpmath.mpf(1)), g1, g2)
        return worst


def _violates_at_50_digits(c, k, m, alpha, w, tol_rel):
    with mpmath.workdps(50):
        ln_c, k, m, alpha, x, y, t = (mpmath.log(c), *(mpmath.mpf(v) for v in (k, m, alpha, w.x, w.y, w.t)))
        return _log_deficit(ln_c, k, m, alpha, x, y, t) > mpmath.log1p(tol_rel)


_c = st.floats(min_value=0.01, max_value=100.0)
_negative_k = st.floats(min_value=-4.0, max_value=0.0, exclude_max=True)
_positive_k = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
_exp_affine_params = st.fixed_dictionaries({"c": _c, "k": st.one_of(_negative_k, _positive_k)})


# five branches; 170 examples keep about 100 for the first three
@settings(deadline=None, max_examples=170)
@given(
    member=st.one_of(
        st.tuples(st.just("const"), st.fixed_dictionaries({"c": _c}), st.just({})),
        st.tuples(st.just("exp_linear"), st.fixed_dictionaries({"k": _negative_k}), st.just({})),
        st.tuples(st.just("exp_linear"), st.fixed_dictionaries({"k": _positive_k}), st.just({})),
        # on its two slices, where one term of the deficit vanishes
        st.tuples(st.just("exp_affine"), _exp_affine_params, st.sampled_from(({"alpha": 1.0}, {"m": 1.0}))),
        # off its slices, where the k term's peak in t moves with a = (1 - m)*ln c
        st.tuples(
            st.just("exp_affine"), _exp_affine_params, st.fixed_dictionaries({"m": _open_unit, "alpha": _open_unit})
        ),
    ),
    m=_unit_interval,
    alpha=_unit_interval,
    upper=st.floats(min_value=0.5, max_value=4.0),
)
# k*B underflows to 0 at a subnormal k: the rule decides before it divides
@example(member=("exp_affine", {"c": 2.0, "k": 5e-324}, {"m": 1.0, "alpha": 0.5}), m=1.0, alpha=1.0, upper=0.5)
@example(member=("exp_affine", {"c": 0.5, "k": 5e-324}, {"m": 0.5, "alpha": 0.5}), m=1.0, alpha=1.0, upper=0.5)
def test_classifier_agrees_with_exact_membership(member, m, alpha, upper):
    family, params, pinned = member
    m, alpha = pinned.get("m", m), pinned.get("alpha", alpha)
    c, k = params.get("c", 1.0), params.get("k", 0.0)
    f = family_instantiate(FamilySpec(family, params))
    report = check_alpha_m_log_convex(f, upper, ClassParams(m, alpha))
    # the gate's rule decides every draw, without sampling and also in the thin band
    exact = classify.exact_membership(f, upper, ClassParams(m, alpha))
    assert exact is not None and exact.samples == 0
    deficit = _worst_log_deficit(c, k, m, alpha, upper)
    if deficit <= PASSING_LOG_DEFICIT:
        assert exact.verdict == "pass"
    elif deficit > THIN_LOG_DEFICIT:
        assert exact.verdict == "fail"
    else:
        event(f"thin violation: {report.verdict}")  # the miss rate shows with --hypothesis-show-statistics
    # A sampled fail is a real violation, so the rule fails too. On a slice
    # the peak in t is broad and the sampler finds it; off the slices it can
    # be narrow and lie between the samples, so a sampled pass proves nothing.
    if report.verdict == "fail":
        assert exact.verdict == "fail"
    if k == 0.0 or c == 1.0 or alpha == 1.0 or m == 1.0:
        assert report.verdict == exact.verdict or PASSING_LOG_DEFICIT < deficit <= THIN_LOG_DEFICIT
    elif report.verdict != exact.verdict:
        event("sampler miss off the slices")
    for checked in (report, exact):
        if checked.verdict == "fail":
            assert _violates_at_50_digits(c, k, m, alpha, checked.worst_violation, 1e-9)


@pytest.mark.parametrize(
    "f,params",
    [
        (parse("0.5"), ClassParams(0.3, 0.5)),  # c < 1
        (parse("2"), ClassParams(1.0, 0.5)),  # m = 1, as `check --f 2` builds it
        (family_instantiate(FamilySpec("exp_linear", {"k": 0.0})), ClassParams(0.5, 0.5)),  # k = 0
        (family_instantiate(FamilySpec("exp_affine", {"c": 0.5, "k": -2.0})), ClassParams(0.5, 1.0)),  # alpha = 1
        # off the slices, where phi rises to phi(1) = 0: c < 1 and |k| small
        (family_instantiate(FamilySpec("exp_affine", {"c": 0.1, "k": 0.1})), ClassParams(0.5, 0.5)),
    ],
)
def test_exact_membership_passes_by_structure_evaluating_only_the_domain_ends(f, params):
    # every tree is read at the two ends, also with k = 0: exp(x)*exp(-x) reads so and overflows
    f = _RecordingSizes(f)
    assert classify.exact_membership(f, 3.0, params) == ClassificationReport("pass", 0)
    assert f.sizes == [2]


@pytest.mark.parametrize(
    "text,spec",
    [
        ("exp(x)", FamilySpec("exp_linear", {"k": 1.0})),  # x is read as 1*x
        ("exp(-x)", FamilySpec("exp_linear", {"k": -1.0})),  # and -x as -1*x
        ("exp(-2*x)", FamilySpec("exp_linear", {"k": -2.0})),  # the parser negates a constant with a node
        ("2*exp(x)", FamilySpec("exp_affine", {"c": 2.0, "k": 1.0})),
        # the builder's own tree, off its slices: c != 1, k != 0, alpha < 1 and m < 1
        (None, FamilySpec("exp_affine", {"c": 0.3, "k": 2.0})),
        # products by 2 and 0.5 and negation are exact, so each of these is a builder tree bit for bit
        ("exp(x*2)", FamilySpec("exp_linear", {"k": 2.0})),
        ("exp(x)*2", FamilySpec("exp_affine", {"c": 2.0, "k": 1.0})),
        ("exp(x)/2", FamilySpec("exp_affine", {"c": 0.5, "k": 1.0})),
        ("exp(-(2*x))", FamilySpec("exp_linear", {"k": -2.0})),
    ],
    ids=["exp_x", "exp_minus_x", "negated_k", "two_exp_x", "exp_affine_off_slices", "k_after_x", "c_after_exp",
         "halved", "negated_product"],
)
@pytest.mark.parametrize("params", [ClassParams(0.5, 0.75), ClassParams(1.0, 0.5)], ids=["m_0.5", "m_1"])
def test_exact_membership_decides_every_spelling_of_c_exp_kx(text, spec, params):
    built = family_instantiate(spec)
    f = built if text is None else parse(text)
    points = np.linspace(0.0, 2.0, 65)
    assert f.evaluate_array(points).tobytes() == built.evaluate_array(points).tobytes()
    report = classify.exact_membership(f, 2.0, params)
    assert report == classify.exact_membership(built, 2.0, params)
    assert report.samples == 0
    # a fail carries its witness, so the reports are compared float for float; c = 0.5 holds this class
    assert report.verdict == "fail" or (text, params) == ("exp(x)/2", ClassParams(0.5, 0.75))


@pytest.mark.parametrize(
    "f,upper,params",
    [
        (parse("x^2+1"), 2.0, ClassParams(1.0)),
        (family_instantiate(FamilySpec("poly_shift", {"p": 2.5, "q": 0.5})), 2.0, ClassParams(1.0)),
        (parse("exp(x)*x"), 2.0, ClassParams(1.0)),
        (parse("exp(x^2)"), 2.0, ClassParams(1.0)),
        # f(3) overflows or underflows: the sampler reports the first bad value
        (family_instantiate(FamilySpec("exp_linear", {"k": 300.0})), 3.0, ClassParams(1.0)),
        (family_instantiate(FamilySpec("exp_linear", {"k": -300.0})), 3.0, ClassParams(1.0)),
        # reads as k = 0, yet f is inf from x = 709.8 on: the ends check refuses it
        (parse("exp(x)*exp(-x)"), 800.0, ClassParams(0.5)),
        # c overflows or divides by 0 as it is read
        (parse("exp(1000)"), 2.0, ClassParams(1.0)),
        (parse("exp(x)/0"), 2.0, ClassParams(1.0)),
        # c is read, but c <= 0 is refused
        (parse("0"), 2.0, ClassParams(1.0)),
        (parse("exp(-800)"), 2.0, ClassParams(1.0)),
        (parse("-2*exp(x)"), 2.0, ClassParams(1.0)),
    ],
    ids=["square_plus_one", "poly_shift", "times_x", "exp_of_square", "overflow", "underflow", "overflow_inside",
         "c_overflow", "c_over_zero", "zero", "c_underflow", "negative_c"],
)
def test_exact_membership_leaves_the_rest_to_the_sampler(f, upper, params):
    assert classify.exact_membership(f, upper, params) is None


@pytest.mark.parametrize("text", ["exp(2*x+1)", "exp(x)*exp(x)", "3*exp(x)/exp(-x)"])
@pytest.mark.parametrize(
    "params", [ClassParams(0.5, 0.75), ClassParams(1.0, 0.5), ClassParams(0.5)], ids=["m_0.5", "m_1", "alpha_1"]
)
def test_exact_membership_decides_spellings_that_round_differently(text, params):
    # f may differ from c*exp(k*x) by some ulps; a fail is still a violation of f itself
    f = parse(text)
    report = classify.exact_membership(f, 2.0, params)
    assert report is not None and report.samples == 0
    if report.verdict == "fail":
        w = report.worst_violation
        lhs = f.evaluate(w.t * w.x + params.m * (1.0 - w.t) * w.y)
        assert lhs > scalar_rhs(f, w.x, w.y, w.t, params.m, params.alpha) * (1.0 + 1e-9)


# the reader's grammar: affine forms in x (constants, x, negation, + and -,
# * and / by a constant) under exp, constants, and products and quotients of these
_constants = st.floats(min_value=-5.0, max_value=5.0).map(Const)
_nonzero_constants = st.one_of(
    st.floats(min_value=0.5, max_value=5.0), st.floats(min_value=-5.0, max_value=-0.5)
).map(Const)
_affine_trees = st.recursive(
    st.one_of(_constants, st.just(Var())),
    lambda inner: st.one_of(
        inner.map(lambda node: Unary("neg", node)),
        st.tuples(st.sampled_from("+-"), inner, inner).map(lambda t: Binary(*t)),
        st.tuples(_constants, inner).map(lambda t: Binary("*", *t)),
        st.tuples(inner, _constants).map(lambda t: Binary("*", *t)),
        st.tuples(inner, _nonzero_constants).map(lambda t: Binary("/", *t)),
    ),
    max_leaves=4,
)
_log_affine_trees = st.recursive(
    st.one_of(_affine_trees.map(lambda node: Unary("exp", node)), _nonzero_constants),
    lambda inner: st.tuples(st.sampled_from("*/"), inner, inner).map(lambda t: Binary(*t)),
    max_leaves=4,
)


@settings(deadline=None, max_examples=300)
@given(root=_log_affine_trees)
def test_the_reader_reads_the_real_function(root):
    c, k = classify._log_affine(root)
    f = FunctionExpr(root)
    for x in np.linspace(0.0, 2.0, 9):
        value = float(f.evaluate_array([x])[0])
        if math.isfinite(value):
            assert math.isclose(value, c * math.exp(k * x), rel_tol=1e-12, abs_tol=0.0), (str(f), x)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(c=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), k=_finite)
@example(c=1.0, k=0.0)
@example(c=1.0, k=-0.0)
@example(c=5e-324, k=5e-324)
@example(c=2.0, k=-5e-324)
def test_builder_trees_read_back_their_parameters(c, k):
    for spec, expected in (
        (FamilySpec("const", {"c": c}), (c, 0.0)),
        (FamilySpec("exp_linear", {"k": k}), (1.0, k)),
        (FamilySpec("exp_affine", {"c": c, "k": k}), (c, k)),
    ):
        read = classify._log_affine(family_instantiate(spec).root)
        assert read == expected
        # the sign of a zero k too, but for exp_affine's k = -0.0: the product adds 0.0 + -0.0 = 0.0
        assert math.copysign(1.0, read[1]) == math.copysign(1.0, expected[1]) or (spec.name, k) == ("exp_affine", 0.0)


def test_a_product_that_overflows_inside_the_domain_is_left_to_the_sampler(capsys):
    assert run(["check", "--f", "exp(x)*exp(-x)", "--b", "400", "--m", "0.5", "--theorem", "eq4"]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert out.splitlines()[1].split()[:4] == ["eq4", "corrected", "skipped", "inconclusive"]
    assert "class check aborted: evaluation failed at sampled triple (x=725.0, y=0.0, t=1.0): " in out


@pytest.mark.parametrize("upper,tol_rel", [(0.0, 1e-9), (math.inf, 1e-9), (1.0, -1e-9), (1.0, math.nan)])
def test_exact_membership_range_checks_its_domain_and_tolerance(upper, tol_rel):
    with pytest.raises(ValueError):
        classify.exact_membership(parse("2"), upper, ClassParams(0.5), tol_rel)


def test_a_peak_between_the_samples_is_decided_a_fail(capsys):
    # The grid_n 33 sampler passes this class, which grid_n 65 fails: its
    # peak in t, near 0.99152, lies between the samples. The rule tests the
    # peak, so the check that used to read pass and holds is inconclusive.
    c, k, m, alpha = 0.3097822152787422, 1.0171856874425433, 0.42008725227972343, 0.6190811496946614
    b = 1.095148269948704
    argv = ["check", "--family", "exp_affine", "--param", f"c={c!r}", "--param", f"k={k!r}", "--a", "0.5",
            "--b", repr(b), "--m", repr(m), "--alpha", repr(alpha), "--theorem", "eq31,eq42"]
    assert run(argv) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert [line.split()[:4] for line in out.splitlines()[1:3]] == [
        ["eq31", "corrected", "fail", "inconclusive"],
        ["eq42", "corrected", "fail", "inconclusive"],
    ]
    f, params = family_instantiate(FamilySpec("exp_affine", {"c": c, "k": k})), ClassParams(m, alpha)
    w = classify.exact_membership(f, b / m, params).worst_violation
    assert (w.x, w.y, w.t) == (0.0, 2.6069543029586573, 0.9915159164260924)
    assert out.count(f"class check failed on [0, {w.y!r}] at (x=0.0, y={w.y!r}, t={w.t!r})") == 2
    assert _violates_at_50_digits(c, k, m, alpha, w, 1e-5)  # lhs/rhs - 1 is 1.53e-5 there
    assert [check_alpha_m_log_convex(f, b / m, params, grid_n=n).verdict for n in (33, 65)] == ["pass", "fail"]
