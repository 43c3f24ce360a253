import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from hhverify import (
    Endpoints,
    FamilySpec,
    Interval,
    arithmetic_mean,
    chain_dr1,
    chain_dr2,
    exp_mean_factor,
    family_instantiate,
    geometric_mean,
    mean_integral,
    parse,
)
from hhverify.bounds import (
    RATIO_ABOVE_ONE,
    eq4_rhs,
    eq22_rhs,
    eq31_branches,
    eq42_rhs,
    mixed_geometric_integrand,
    sym_geometric_integrand,
)

UNIT = Interval(0.0, 1.0)


class TestExpMeanFactor:
    def test_frozen_values(self):
        assert exp_mean_factor(2.0**-0.5, 0.5).value == pytest.approx(0.9181518108044918, rel=1e-14)
        assert exp_mean_factor(1.0 / math.e, 1.0).value == pytest.approx(0.6321205588285577, rel=1e-14)
        assert exp_mean_factor(0.5, 0.5).value == pytest.approx(0.8451111885843479, rel=1e-14)

    def test_unit_ratio_is_exactly_one(self):
        assert exp_mean_factor(1.0, 0.3).value == 1.0
        assert exp_mean_factor(1.0 + 5e-15, 1.0).value == 1.0
        assert exp_mean_factor(1.0 - 5e-15, 0.7).value == 1.0

    def test_ratio_above_one_is_inapplicable(self):
        side = exp_mean_factor(2.0, 1.0)
        assert not side.applicable
        assert side.value is None
        assert side.reason == RATIO_ABOVE_ONE
        # just past the near-one window counts as above one
        assert not exp_mean_factor(1.0 + 2e-14, 0.5).applicable

    @pytest.mark.parametrize("r,alpha", [(0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (0.5, 0.0), (0.5, 1.5)])
    def test_validation(self, r, alpha):
        with pytest.raises(ValueError):
            exp_mean_factor(r, alpha)

    def test_small_ratio_stays_finite(self):
        side = exp_mean_factor(1e-300, 1.0)
        assert 0.0 < side.value < 1.0


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


def _sym_mean(f, iv):
    return mean_integral(sym_geometric_integrand(f, iv.a + iv.b), iv, 1e-10)


def test_eq4_exp_is_equality():
    f, iv = parse("exp(x)"), Interval(0.0, 2.0)
    assert mean_integral(f, iv, 1e-10).value == pytest.approx(3.194528049465325, rel=1e-12)
    assert eq4_rhs(Endpoints.of(f, iv, 0.5)).value == pytest.approx(3.194528049465325, rel=1e-12)


def test_eq4_const_frozen_bound():
    f = parse("0.5")
    assert mean_integral(f, UNIT, 1e-10).value == 0.5
    # L(0.5, 0.5^0.5), both orderings coincide here
    assert eq4_rhs(Endpoints.of(f, UNIT, 0.5)).value == pytest.approx(0.5975838523046155, rel=1e-14)


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
    assert eq22_rhs(Endpoints.of(f, UNIT, 1.0), variant="printed").value == pytest.approx(0.25, abs=1e-14)
    assert eq22_rhs(Endpoints.of(f, UNIT, 1.0), variant="corrected").value == pytest.approx(0.5, abs=1e-14)


def test_eq22_corrected_m_one_reduces_to_endpoint_geometric_mean():
    f = parse("exp(2*x)")
    iv = Interval(0.2, 1.7)
    expected = geometric_mean(f.evaluate(iv.a), f.evaluate(iv.b))
    assert eq22_rhs(Endpoints.of(f, iv, 1.0), variant="corrected").value == pytest.approx(expected, rel=1e-13)


def test_eq31_const_worked_example():
    # f = 1/2, m = alpha = 1/2 on [0, 1]: both endpoint ratios are 2^-1/2,
    # the kernel value is 0.91815..., and each branch scales it by 2^-1/2.
    f = parse("0.5")
    rhs, branches = eq31_branches(Endpoints.of(f, UNIT, 0.5), 0.5)
    assert mean_integral(f, UNIT, 1e-10).value == 0.5
    for side in branches.values():
        assert side.value == pytest.approx(0.6492313715785641, rel=1e-13)
    assert rhs.value == pytest.approx(0.6492313715785641, rel=1e-13)


def test_eq31_exp_keeps_only_the_phi_branch():
    f = parse("exp(x)")
    rhs, branches = eq31_branches(Endpoints.of(f, UNIT, 1.0), 1.0)
    assert branches["ell"].reason == RATIO_ABOVE_ONE
    assert branches["phi"].value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert rhs.value == pytest.approx(math.e - 1.0, rel=1e-13)
    assert mean_integral(f, UNIT, 1e-10).value == pytest.approx(math.e - 1.0, rel=1e-10)


def test_eq31_large_constant_is_fully_inapplicable():
    rhs, branches = eq31_branches(Endpoints.of(parse("2"), UNIT, 0.5), 1.0)
    assert not rhs.applicable
    assert rhs.reason == RATIO_ABOVE_ONE
    assert not any(side.applicable for side in branches.values())


def test_eq42_const_variants():
    f = parse("0.5")
    ends = Endpoints.of(f, UNIT, 0.5)
    lhs = _sym_mean(f, UNIT)
    assert lhs.value == 0.5
    assert eq42_rhs(ends, 0.5, variant="corrected").value == pytest.approx(0.6492313715785641, rel=1e-13)
    printed = eq42_rhs(ends, 0.5, variant="printed")
    assert printed.value == pytest.approx(0.42255559429217393, rel=1e-13)
    # the printed closed form dips below the left side here
    assert printed.value < lhs.value


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
        assert actual[name].applicable == side.applicable, name
        if side.applicable:
            assert actual[name].value == pytest.approx(c * side.value, rel=1e-13), name


def test_chain_dr1_exp_collapses_to_equality():
    chain = chain_dr1(parse("exp(x)"), UNIT)
    assert [t.label for t in chain.terms] == [
        "midpoint_value",
        "geometric_mean_integral",
        "endpoint_geometric_mean",
    ]
    for term in chain.terms:
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
    chain = chain_dr2(parse("exp(x^2)"), UNIT)
    assert [t.label for t in chain.terms] == list(DR2_ORACLE)
    for term in chain.terms:
        assert term.value == pytest.approx(DR2_ORACLE[term.label], rel=1e-12), term.label
    values = [t.value for t in chain.terms]
    for lo, hi in zip(values, values[1:]):
        assert hi - lo >= -1e-12


def test_chain_dr2_exp_endpoints():
    chain = chain_dr2(parse("exp(x)"), UNIT)
    by_label = {t.label: t.value for t in chain.terms}
    assert by_label["endpoint_logarithmic_mean"] == pytest.approx(math.e - 1.0, rel=1e-14)
    assert by_label["endpoint_arithmetic_mean"] == pytest.approx((1.0 + math.e) / 2.0, rel=1e-15)
    assert by_label["midpoint_value"] == pytest.approx(math.exp(0.5), rel=1e-15)
