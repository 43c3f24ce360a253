import itertools
import math
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from hhverify import (
    HOLDS,
    Endpoints,
    FamilySpec,
    Interval,
    arithmetic_mean,
    exp_mean_factor,
    family_instantiate,
    geometric_mean,
    margin_tolerance,
    mean_integral,
    parse,
    registered_families,
    replay_verdict,
    unparse,
    verify_theorem,
)
from hhverify.bounds import (
    ClosedFormUnderflow,
    eq4_rhs,
    eq22_rhs,
    eq31_branches,
    eq42_rhs,
)
from hhverify.quadrature import mixed_geometric_integrand, sym_geometric_integrand

UNIT = Interval(0.0, 1.0)


class TestExpMeanFactor:
    def test_frozen_values(self):
        assert exp_mean_factor(2.0**-0.5, 0.5) == pytest.approx(0.9181518108044918, rel=1e-14)
        assert exp_mean_factor(1.0 / math.e, 1.0) == pytest.approx(0.6321205588285577, rel=1e-14)
        assert exp_mean_factor(0.5, 0.5) == pytest.approx(0.8451111885843479, rel=1e-14)

    def test_unit_ratio_is_exactly_one(self):
        assert exp_mean_factor(1.0, 0.3) == 1.0
        assert exp_mean_factor(1.0 + 5e-15, 1.0) == 1.0
        assert exp_mean_factor(1.0 - 5e-15, 0.7) == 1.0

    def test_ratio_above_one_is_inapplicable(self):
        assert exp_mean_factor(2.0, 1.0) is None
        # just past the near-one window counts as above one
        assert exp_mean_factor(1.0 + 2e-14, 0.5) is None

    @pytest.mark.parametrize("r,alpha", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (0.5, 0.0), (0.5, 1.5)])
    def test_validation(self, r, alpha):
        with pytest.raises(ValueError):
            exp_mean_factor(r, alpha)

    def test_small_ratio_stays_finite(self):
        assert 0.0 < exp_mean_factor(1e-300, 1.0) < 1.0


class TestEndpoints:
    def test_exp_on_unit_interval(self):
        rs = Endpoints.of(parse("exp(x)"), UNIT, 1.0)
        assert rs.phi == pytest.approx(1.0 / math.e, rel=1e-15)
        assert rs.ell == pytest.approx(math.e, rel=1e-15)
        assert rs.theta == pytest.approx(1.0, abs=1e-15)

    def test_theta_consistent_with_product(self):
        rng = random.Random(9)
        for _ in range(50):
            f = family_instantiate(
                FamilySpec("exp_affine", {"c": rng.uniform(0.1, 3.0), "k": rng.uniform(-2.0, 2.0)})
            )
            iv = Interval(rng.uniform(0.0, 0.5), rng.uniform(0.6, 2.0))
            m = rng.uniform(0.1, 1.0)
            rs = Endpoints.of(f, iv, m)
            assert rs.theta == pytest.approx(rs.phi * rs.ell, rel=1e-12)

    def test_exp_linear_theta_is_one_for_any_m(self):
        rng = random.Random(10)
        for _ in range(20):
            f = family_instantiate(FamilySpec("exp_linear", {"k": rng.uniform(-2.0, 3.0)}))
            rs = Endpoints.of(f, Interval(0.25, 1.5), rng.uniform(0.05, 1.0))
            assert rs.theta == pytest.approx(1.0, rel=1e-12)

    def test_m_validation(self):
        with pytest.raises(ValueError, match=r"m must lie in \(0, 1\], got 0.0"):
            Endpoints.of(parse("exp(x)"), UNIT, 0.0)

    def test_ratio_underflow_is_not_a_validation_error(self):
        # f(a) = 1e-300 and f(b) = 1e300 at m = 1: phi = exp(-1380) rounds to 0
        rs = Endpoints(1.0, 1e-300, 1e300, -690.0, 690.0, -690.0, 690.0)
        with pytest.raises(ClosedFormUnderflow, match=r"^phi = exp\(-1380\.0\) rounds to 0\.0$"):
            rs.phi
        assert not issubclass(ClosedFormUnderflow, ValueError)


def _sym_mean(f, iv):
    return mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, 1e-10)


def test_eq4_exp_is_equality():
    f, iv = parse("exp(x)"), Interval(0.0, 2.0)
    assert mean_integral(f, iv, 1e-10).value == pytest.approx(3.194528049465325, rel=1e-12)
    assert eq4_rhs(Endpoints.of(f, iv, 0.5)) == pytest.approx(3.194528049465325, rel=1e-12)


def test_eq4_const_frozen_bound():
    f = parse("0.5")
    assert mean_integral(f, UNIT, 1e-10).value == 0.5
    # L(0.5, 0.5^0.5), both orderings coincide here
    assert eq4_rhs(Endpoints.of(f, UNIT, 0.5)) == pytest.approx(0.5975838523046155, rel=1e-14)


def _eq11_sides(f, iv, m):
    lhs = f.evaluate(arithmetic_mean(iv.a, iv.b))
    return lhs, mean_integral(mixed_geometric_integrand(f, iv.a + iv.b, m), iv, 1e-10)


def test_eq11_exp_is_equality():
    lhs, rhs = _eq11_sides(parse("exp(x)"), UNIT, 1.0)
    assert lhs == pytest.approx(math.exp(0.5), rel=1e-15)
    assert rhs.value == pytest.approx(math.exp(0.5), rel=1e-10)


def test_eq11_const_frozen_bound():
    lhs, rhs = _eq11_sides(parse("0.5"), UNIT, 0.5)
    assert lhs == 0.5
    # mean of sqrt(0.5 * 0.5^0.5) = 0.5^0.75
    assert rhs.value == pytest.approx(0.5946035575013605, rel=1e-12)


def test_eq22_variants_on_a_constant():
    f = parse("0.5")
    assert _sym_mean(f, UNIT).value == pytest.approx(0.5, abs=1e-14)
    assert eq22_rhs(Endpoints.of(f, UNIT, 1.0), variant="printed") == pytest.approx(0.25, abs=1e-14)
    assert eq22_rhs(Endpoints.of(f, UNIT, 1.0), variant="corrected") == pytest.approx(0.5, abs=1e-14)


def test_eq22_corrected_m_one_reduces_to_endpoint_geometric_mean():
    f = parse("exp(2*x)")
    iv = Interval(0.2, 1.7)
    expected = geometric_mean(f.evaluate(iv.a), f.evaluate(iv.b))
    assert eq22_rhs(Endpoints.of(f, iv, 1.0), variant="corrected") == pytest.approx(expected, rel=1e-13)


def test_eq31_const_worked_example():
    # f = 1/2, m = alpha = 1/2 on [0, 1]: both endpoint ratios are 2^-1/2,
    # the kernel value is 0.91815..., and each branch scales it by 2^-1/2.
    f = parse("0.5")
    rhs, branches = eq31_branches(Endpoints.of(f, UNIT, 0.5), 0.5)
    assert mean_integral(f, UNIT, 1e-10).value == 0.5
    for side in branches.values():
        assert side == pytest.approx(0.6492313715785641, rel=1e-13)
    assert rhs == pytest.approx(0.6492313715785641, rel=1e-13)


def test_eq31_exp_keeps_only_the_phi_branch():
    f = parse("exp(x)")
    rhs, branches = eq31_branches(Endpoints.of(f, UNIT, 1.0), 1.0)
    assert branches["ell"] is None
    assert branches["phi"] == pytest.approx(math.e - 1.0, rel=1e-13)
    assert rhs == pytest.approx(math.e - 1.0, rel=1e-13)
    assert mean_integral(f, UNIT, 1e-10).value == pytest.approx(math.e - 1.0, rel=1e-10)


def test_eq31_large_constant_is_fully_inapplicable():
    rhs, branches = eq31_branches(Endpoints.of(parse("2"), UNIT, 0.5), 1.0)
    assert rhs is None
    assert all(side is None for side in branches.values())


def test_eq42_const_variants():
    f = parse("0.5")
    ends = Endpoints.of(f, UNIT, 0.5)
    lhs = _sym_mean(f, UNIT)
    assert lhs.value == 0.5
    assert eq42_rhs(ends, 0.5, variant="corrected") == pytest.approx(0.6492313715785641, rel=1e-13)
    printed = eq42_rhs(ends, 0.5, variant="printed")
    assert printed == pytest.approx(0.42255559429217393, rel=1e-13)
    # the printed closed form dips below the left side here
    assert printed < lhs.value


def test_eq42_variant_validation():
    with pytest.raises(ValueError):
        eq42_rhs(Endpoints.of(parse("0.5"), UNIT, 0.5), 1.0, variant="fixed")


# f -> c*f at m = 1: every corrected closed form is homogeneous of degree
# one, and the ratios phi and ell do not change, so neither does
# applicability. (The printed forms are homogeneous of degree two in f and
# are left out.) At m = 1, theta is exactly 1.
_SCALABLE = {
    "exp(k*x)": lambda p: f"exp({p!r}*x)",
    "q+x^2": lambda p: f"{abs(p) + 0.1!r}+x^2",
    "(x+0.5)^p": lambda p: f"(x+0.5)^{abs(p) + 0.25!r}",
}


def _corrected_sides(ends, alpha):
    return {
        "eq4": eq4_rhs(ends),
        "eq22": eq22_rhs(ends, "corrected"),
        "eq31": eq31_branches(ends, alpha)[0],
        "eq42": eq42_rhs(ends, alpha, "corrected"),
    }


@given(
    st.sampled_from(sorted(_SCALABLE)),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scaling_f_scales_the_corrected_closed_forms_at_m_one(family, p, a, width, alpha, c):
    text = _SCALABLE[family](p)
    iv = Interval(a, a + width)
    ends = Endpoints.of(parse(text), iv, 1.0)
    scaled = Endpoints.of(parse(f"{c!r}*({text})"), iv, 1.0)
    assert ends.theta == scaled.theta == 1.0
    for ratios in (ends, scaled):
        assume(abs(ratios.phi - 1.0) > 1e-12 and abs(ratios.ell - 1.0) > 1e-12)
    expected, actual = _corrected_sides(ends, alpha), _corrected_sides(scaled, alpha)
    for name, side in expected.items():
        assert (actual[name] is None) == (side is None), name
        if side is not None:
            assert actual[name] == pytest.approx(c * side, rel=1e-13), name


def _chain_terms(theorem, f, iv=UNIT):
    """The terms of a refinement chain, as the public API gives them."""
    return verify_theorem(theorem, f, iv, check_hypothesis=False).terms


def test_chain_dr1_exp_collapses_to_equality():
    terms = _chain_terms("dr1", parse("exp(x)"))
    assert [t.label for t in terms] == [
        "midpoint_value",
        "geometric_mean_integral",
        "endpoint_geometric_mean",
    ]
    for term in terms:
        assert term.value == pytest.approx(math.exp(0.5), rel=1e-10)


DR2_ORACLE = {
    "midpoint_value": 1.2840254166877414,
    "exp_mean_log": 1.3956124250860895,
    "geometric_mean_integral": 1.3995545870776422,
    "mean_integral": 1.4626517459071816,
    "endpoint_logarithmic_mean": 1.7182818284590452,
    "endpoint_arithmetic_mean": 1.8591409142295226,
}


def test_chain_dr2_frozen_oracle():
    terms = _chain_terms("dr2", parse("exp(x^2)"))
    assert [t.label for t in terms] == list(DR2_ORACLE)
    for term in terms:
        assert term.value == pytest.approx(DR2_ORACLE[term.label], rel=1e-12), term.label
    values = [t.value for t in terms]
    for lo, hi in zip(values, values[1:]):
        assert hi - lo >= -1e-12


def test_chain_dr2_exp_endpoints():
    by_label = {t.label: t.value for t in _chain_terms("dr2", parse("exp(x)"))}
    assert by_label["endpoint_logarithmic_mean"] == pytest.approx(math.e - 1.0, rel=1e-14)
    assert by_label["endpoint_arithmetic_mean"] == pytest.approx((1.0 + math.e) / 2.0, rel=1e-15)
    assert by_label["midpoint_value"] == pytest.approx(math.exp(0.5), rel=1e-15)


# Metamorphic tests of the chains over registered family members. The
# chains do not depend on (alpha, m). Reflecting f(x) to f(a+b-x) leaves
# every term unchanged, and f -> c*f multiplies every term by c.
_PARAM_RANGES = {"c": (0.1, 3.0), "k": (-3.0, 3.0), "p": (0.5, 3.0), "q": (0.1, 2.0)}
# Reflection runs each Simpson panel on mirrored nodes, so the integrals
# agree up to the order in which the same values are summed.
_REFLECTION_ROUNDING_REL = 1e-14


@st.composite
def _family_members(draw):
    name = draw(st.sampled_from(sorted(registered_families())))
    params = {p: draw(st.floats(*_PARAM_RANGES[p])) for p in registered_families()[name]}
    return family_instantiate(FamilySpec(name, params))


@st.composite
def _dyadic_intervals(draw):
    # a, b and a+b on a grid of 1/32, so a+b-x is exact at every node
    a = draw(st.integers(0, 64)) / 32.0
    return Interval(a, a + draw(st.integers(1, 64)) / 32.0)


def _reflected(f, iv):
    """f(a+b-x), by substituting (a+b-x) for every x in f's text."""
    return parse(re.sub(r"\bx\b", f"({iv.a + iv.b!r}-x)", unparse(f)))


@settings(deadline=None)
@given(_family_members(), _dyadic_intervals(), st.sampled_from(("dr1", "dr2")))
def test_reflecting_f_leaves_every_chain_term_unchanged(f, iv, theorem):
    terms = _chain_terms(theorem, f, iv)
    mirrored = _chain_terms(theorem, _reflected(f, iv), iv)
    assert terms and [t.label for t in mirrored] == [t.label for t in terms]
    for term, image in zip(terms, mirrored):
        allowance = term.err_est + image.err_est + _REFLECTION_ROUNDING_REL * abs(term.value)
        assert abs(image.value - term.value) <= allowance, term.label


@settings(deadline=None)
@given(
    _family_members(),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(("dr1", "dr2")),
)
def test_scaling_f_scales_every_chain_term(f, a, width, c, theorem):
    iv = Interval(a, a + width)
    terms = _chain_terms(theorem, f, iv)
    scaled = _chain_terms(theorem, parse(f"{c!r}*({unparse(f)})"), iv)
    assert terms and [t.label for t in scaled] == [t.label for t in terms]
    # The integrals of c*f refine on other panels than those of f, so they
    # agree to within the slack the verdict rule grants, not bit for bit.
    for term, image in zip(terms, scaled):
        expected = c * term.value
        assert abs(image.value - expected) <= margin_tolerance(
            expected, image.value, c * term.err_est + image.err_est
        ), term.label


@settings(deadline=None)
@given(
    _family_members(),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.sampled_from(("dr1", "dr2")),
)
def test_chain_verdict_is_the_replayed_verdict(f, a, width, theorem):
    # The reported pair replays the verdict, and it holds exactly when every
    # adjacent pair of the chain does.
    r = verify_theorem(theorem, f, Interval(a, a + width), check_hypothesis=False)
    assert r.terms and r.verdict == replay_verdict(r.lhs, r.rhs, r.margin, r.quad_err)
    pairs = [
        replay_verdict(first.value, second.value, second.value - first.value, first.err_est + second.err_est)
        for first, second in itertools.pairwise(r.terms)
    ]
    assert (r.verdict == HOLDS) == (all(verdict == HOLDS for verdict in pairs))
