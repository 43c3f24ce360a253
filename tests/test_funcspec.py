import dataclasses
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hhverify import (
    DomainError,
    ExprSyntaxError,
    FamilyError,
    FamilySpec,
    IntegrandError,
    Interval,
    PositivityError,
    UnknownIdentifierError,
    family_instantiate,
    integrate,
    parse,
    registered_families,
    unparse,
    verify_theorems,
)
from hhverify.funcspec import MAX_DEPTH, Binary, Const, FunctionExpr, Unary, Var, _Token, _tokenize, check_family_value
from hhverify.quadrature import log_integrand, mixed_geometric_integrand, sym_geometric_integrand


@pytest.mark.parametrize(
    "text,x,expected",
    [
        ("exp(2*x)", 0.5, math.e),
        ("x^2+1", 2.0, 5.0),
        ("2^x^2", 2.0, 16.0),  # right-associative power
        ("10-x^2", 3.0, 1.0),
        ("x/2/2", 8.0, 2.0),  # left-associative division
        ("1e-3+x", 0.0, 1e-3),
        ("2^-1", 1.0, 0.5),
        ("sqrt(x)*pi", 4.0, 2.0 * math.pi),
        ("e", 0.3, math.e),
    ],
)
def test_evaluate(text, x, expected):
    assert parse(text).evaluate(x) == pytest.approx(expected, rel=1e-15)


def test_unclosed_call_reports_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("exp(")
    assert info.value.offset == 4
    assert "offset 4" in str(info.value)


def test_call_without_parenthesis_reports_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("exp x")
    assert (str(info.value), info.value.offset) == ("expected '(' (at offset 4)", 4)


def test_str_is_the_unparsed_text():
    assert str(parse("exp(2*x)+1")) == "exp(2.0*x)+1.0"


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as info:
        parse("foo(x)")
    assert info.value.name == "foo"
    assert info.value.offset == 0


@pytest.mark.parametrize("text", ["", "1+", "(x", "x 2", "x..2", "1e999"])
def test_malformed_inputs_rejected(text):
    with pytest.raises(ExprSyntaxError):
        parse(text)


# ``_reference_tokenize`` is ``_tokenize`` as it was before one pattern
# matched every token: a character loop over three separate rules. The
# pattern must give the same (kind, text, pos) list, or raise the same error
# with the same message and offset.

_REFERENCE_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_REFERENCE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _reference_tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _REFERENCE_NUMBER_RE.match(text, i) or _REFERENCE_IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("num" if m.re is _REFERENCE_NUMBER_RE else "ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as err:
        return type(err), str(err), err.offset


# digits, letters, operators, dots, exponents, ASCII and Unicode spaces, a
# Unicode decimal digit, and characters that are neither spaces nor digits
_TOKEN_ALPHABET = "0123456789.eE+-xyz_pi*/^()" + " \t\n\r\x0b\x0c\x1c\x85  　" + "٣²é$#"


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=20))
@example("x\n")
@example("1e5e")
@example("٣.5 x")
@example("x ²")
def test_one_pattern_tokenizes_as_the_character_loop_did(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text)


def test_every_code_point_before_x_tokenizes_as_the_character_loop_did():
    for code in range(0x110000):
        if 0xD800 <= code < 0xE000:
            continue  # surrogates
        text = chr(code) + "x"
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text), hex(code)


def test_log_of_negative_is_domain_error():
    with pytest.raises(DomainError) as info:
        parse("ln(x-2)").evaluate(1.0)
    assert info.value.x == 1.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(DomainError):
        parse("1/x").evaluate(0.0)


def test_fractional_power_of_negative_is_domain_error():
    # math.pow rejects this instead of drifting into complex arithmetic
    with pytest.raises(DomainError):
        parse("(0-2)^0.5").evaluate(1.0)


def test_nonpositive_value_is_positivity_error():
    with pytest.raises(PositivityError):
        parse("x-5").evaluate(1.0)


def test_overflow_is_positivity_error():
    with pytest.raises(PositivityError):
        parse("exp(1000*x)").evaluate(1.0)


# nesting depth ---------------------------------------------------------------


def test_max_depth_is_at_least_400():
    assert MAX_DEPTH >= 400


def test_nesting_at_max_depth_parses_and_evaluates():
    f = parse("sqrt(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH)
    expected = 2.0
    for _ in range(MAX_DEPTH):
        expected = math.sqrt(expected)
    assert f.evaluate(2.0) == expected


def test_nesting_beyond_max_depth_is_syntax_error():
    with pytest.raises(ExprSyntaxError) as info:
        parse("sqrt(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))
    assert info.value.offset == 0
    assert f"deeper than {MAX_DEPTH}" in str(info.value)


def test_parentheses_alone_do_not_count_toward_depth():
    assert parse("(" * (2 * MAX_DEPTH) + "x+1" + ")" * (2 * MAX_DEPTH)) == parse("x+1")


def test_long_sum_evaluates_left_to_right():
    x = 0.1
    expected = x
    for _ in range(399):
        expected = expected + x
    assert parse("+".join(["x"] * 400)).evaluate(x) == expected


def test_long_negation_chain():
    f = parse("-" * 400 + "x")
    assert f.evaluate(0.7) == 0.7
    with pytest.raises(PositivityError):
        parse("-" * 399 + "x").evaluate(0.7)


def test_function_expr_is_immutable():
    f = parse("x+1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.root = Var()


def test_structural_equality():
    assert parse("x + 1") == parse("x+1")
    assert parse("x+1") != parse("1+x")


# round-tripping ------------------------------------------------------------

ROUND_TRIP_CORPUS = [
    "x",
    "2.5",
    "x^2+1",
    "2^x^2",
    "(x+1)*(x+2)",
    "x-(1-x)",
    "x/2/2",
    "exp(2*x)",
    "-x+3",
    "sqrt(x^3)",
    "ln(x+1)/ln(2)",
    "2^(x*3)",
    "(2^x)^3",
    "x*(2+x)^2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_round_trip_corpus(text):
    f = parse(text)
    assert parse(unparse(f)) == f


_leaf = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False).map(Const),
    st.just(Var()),
)
_tree = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sqrt"]), sub),
        st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
    ),
    max_leaves=12,
)


@given(_tree)
def test_round_trip_random_trees(root):
    f = FunctionExpr(root)
    assert parse(unparse(f)).root == root


# generated code against a tree-walking reference --------------------------

_MATH_OPS = {
    "neg": operator.neg, "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": math.pow,
}
_NUMPY_OPS = {
    "neg": np.negative, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
}


def _walk(node, x, ops):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return ops[node.op](_walk(node.arg, x, ops))
    return ops[node.op](_walk(node.left, x, ops), _walk(node.right, x, ops))


def _reference(f, x):
    """What FunctionExpr.evaluate must return or raise, by walking the tree."""
    try:
        y = _walk(f.root, x, _MATH_OPS)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(str(exc) or "math domain error", x) from exc
    except OverflowError as exc:
        raise PositivityError("value overflowed to non-finite", x) from exc
    if not (math.isfinite(y) and y > 0.0):
        raise PositivityError(f"value {y!r} is not strictly positive", x)
    return y


def _outcome(thunk):
    """The bits of a float result, or the class, message and x of what was raised."""
    try:
        return ("value", thunk().hex())
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "x", None))


_points = st.floats(min_value=0.0, max_value=4.0)


@given(_tree, _points)
def test_evaluate_matches_reference(root, x):
    f = FunctionExpr(root)
    assert _outcome(lambda: f.evaluate(x)) == _outcome(lambda: _reference(f, x))


@given(_tree, st.lists(_points, min_size=1, max_size=8))
def test_evaluate_array_matches_reference(root, points):
    xs = np.array(points)
    with np.errstate(all="ignore"):
        expected = np.broadcast_to(_walk(root, xs, _NUMPY_OPS), xs.shape)
    ys = FunctionExpr(root).evaluate_array(xs)
    assert ys.shape == xs.shape
    assert np.array_equal(ys, expected, equal_nan=True)


def _assert_kernels_match_formulas(f, x, s, m):
    ref = lambda t: _reference(f, t)  # noqa: E731
    pairs = [
        (sym_geometric_integrand(f, s), lambda: math.exp(0.5 * (math.log(ref(x)) + math.log(ref(s - x))))),
        (
            mixed_geometric_integrand(f, s, m),
            lambda: math.exp(0.5 * (math.log(ref(x)) + m * math.log(ref((s - x) / m)))),
        ),
        (log_integrand(f), lambda: math.log(ref(x))),
    ]
    for kernel, formula in pairs:
        assert _outcome(lambda: kernel(x)) == _outcome(formula)


@given(_tree, _points, st.floats(min_value=0.0, max_value=8.0), st.floats(min_value=0.05, max_value=1.0))
@example(Var(), 0.0, 1.0, 0.5)  # f(x) = 0.0 exactly
def test_kernels_match_their_formulas_on_the_reference(root, x, s, m):
    _assert_kernels_match_formulas(FunctionExpr(root), x, s, m)


def test_kernels_match_their_formulas_on_a_smooth_function():
    # random trees mostly fail somewhere; this one is finite and positive
    # on the whole range, so every point checks the arithmetic
    rng = random.Random(3)
    f = parse("exp(x^2)*sqrt(x+1)/(ln(x+2)+1)")
    for _ in range(500):
        _assert_kernels_match_formulas(f, rng.uniform(0.0, 2.0), rng.uniform(2.0, 4.0), rng.uniform(0.5, 1.0))


# Failing integrands: the IntegrandError text of each integral kind, and
# the diagnostics of the dr2 report, which fails on a closed-form endpoint
# value first. These are the strings of the closure-tree evaluator that
# the generated code replaced.
_FAILING = {
    ("ln(x-0.5)", 0.0, 1.0): (
        "integrand failed at x=0.0: math domain error at x=0.0",
        "integrand failed at x=0.0: math domain error at x=0.0",
        "integrand failed at x=0.0: math domain error at x=0.0",
        "integrand failed at x=0.0: math domain error at x=0.0",
        "math domain error at x=0.0",
    ),
    ("ln(x-0.5)", 0.5, 1.5): (
        "integrand failed at x=0.5: math domain error at x=0.5",
        "integrand failed at x=0.5: math domain error at x=0.5",
        "integrand failed at x=0.5: math domain error at x=0.5",
        "integrand failed at x=0.5: math domain error at x=0.5",
        "math domain error at x=0.5",
    ),
    ("1/(x-0.5)", 0.0, 1.0): (
        "integrand failed at x=0.0: value -2.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -2.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -2.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -2.0 is not strictly positive at x=0.0",
        "value -2.0 is not strictly positive at x=0.0",
    ),
    ("1/(x-0.5)", 0.5, 1.5): (
        "integrand failed at x=0.5: float division by zero at x=0.5",
        "integrand failed at x=0.5: float division by zero at x=0.5",
        "integrand failed at x=0.5: float division by zero at x=0.5",
        "integrand failed at x=0.5: float division by zero at x=0.5",
        "float division by zero at x=0.5",
    ),
    ("x-5", 0.0, 1.0): (
        "integrand failed at x=0.0: value -5.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -5.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -5.0 is not strictly positive at x=0.0",
        "integrand failed at x=0.0: value -5.0 is not strictly positive at x=0.0",
        "value -5.0 is not strictly positive at x=0.0",
    ),
    ("x-5", 0.5, 1.5): (
        "integrand failed at x=0.5: value -4.5 is not strictly positive at x=0.5",
        "integrand failed at x=0.5: value -4.5 is not strictly positive at x=0.5",
        "integrand failed at x=0.5: value -4.5 is not strictly positive at x=0.5",
        "integrand failed at x=0.5: value -4.5 is not strictly positive at x=0.5",
        "value -4.5 is not strictly positive at x=0.5",
    ),
    ("exp(1000*x)", 0.0, 1.0): (
        "integrand failed at x=1.0: value overflowed to non-finite at x=1.0",
        "integrand failed at x=0.0: value overflowed to non-finite at x=1.0",
        "integrand failed at x=0.0: value overflowed to non-finite at x=1.6666666666666667",
        "integrand failed at x=1.0: value overflowed to non-finite at x=1.0",
        "value overflowed to non-finite at x=1.0",
    ),
    ("exp(1000*x)", 0.5, 1.5): (
        "integrand failed at x=1.0: value overflowed to non-finite at x=1.0",
        "integrand failed at x=0.5: value overflowed to non-finite at x=1.5",
        "integrand failed at x=0.5: value overflowed to non-finite at x=2.5",
        "integrand failed at x=1.0: value overflowed to non-finite at x=1.0",
        "value overflowed to non-finite at x=1.5",
    ),
}


@pytest.mark.parametrize("text,a,b", list(_FAILING))
def test_failing_integrands_keep_their_messages(text, a, b):
    mean_f, sym, mixed, ln_f, dr2 = _FAILING[(text, a, b)]
    f, iv = parse(text), Interval(a, b)
    integrands = (
        (f.evaluate, mean_f),
        (sym_geometric_integrand(f, a + b), sym),
        (mixed_geometric_integrand(f, a + b, 0.6), mixed),
        (log_integrand(f), ln_f),
    )
    for g, message in integrands:
        with pytest.raises(IntegrandError) as info:
            integrate(g, iv)
        assert str(info.value) == message
    reports = verify_theorems(
        ["eq4", "eq31", "eq11", "eq22", "eq42", "dr1", "dr2"], f, iv, m=0.6, alpha=0.5, check_hypothesis=False,
    )
    diagnostics = {r.theorem: r.diagnostics for r in reports}
    assert {r.verdict for r in reports} == {"inconclusive"}
    assert diagnostics == {
        "eq4": mean_f, "eq31": mean_f, "eq11": mixed, "eq22": sym, "eq42": sym, "dr1": sym, "dr2": dr2,
    }


# vectorized evaluation ------------------------------------------------------


def test_evaluate_array_matches_scalar():
    f = parse("0.5*exp(1.3*x)+x^2")
    xs = np.linspace(0.0, 3.0, 101)
    vec = f.evaluate_array(xs)
    scal = np.array([f.evaluate(float(x)) for x in xs])
    assert np.allclose(vec, scal, rtol=1e-15, atol=0.0)


def test_evaluate_array_passes_nan_through():
    ys = parse("ln(x-2)").evaluate_array(np.array([1.0, 3.0]))
    assert math.isnan(ys[0])
    assert ys[1] == pytest.approx(0.0, abs=1e-15)


def test_evaluate_array_broadcasts_constants():
    ys = parse("5").evaluate_array(np.array([1.0, 2.0, 3.0]))
    assert ys.shape == (3,)
    assert np.all(ys == 5.0)


# families --------------------------------------------------------------------


def test_registered_families_names_and_params():
    fams = registered_families()
    assert fams["const"] == ("c",)
    assert fams["exp_linear"] == ("k",)
    assert fams["exp_affine"] == ("c", "k")
    assert fams["poly_shift"] == ("p", "q")


def test_exp_linear_matches_math_exp_bitwise():
    import random

    rng = random.Random(42)
    for _ in range(1000):
        k = rng.uniform(-3.0, 3.0)
        x = rng.uniform(0.0, 5.0)
        f = family_instantiate(FamilySpec("exp_linear", {"k": k}))
        assert f.evaluate(x) == math.exp(k * x)


def test_poly_shift_example():
    f = family_instantiate(FamilySpec("poly_shift", {"p": 2.0, "q": 1.0}))
    assert f == parse("x^2+1")


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("nope", {}),
        FamilySpec("exp_affine", {"c": 1.0}),  # missing k
        FamilySpec("exp_linear", {"k": 1.0, "z": 2.0}),  # unexpected
        FamilySpec("const", {"c": math.inf}),
        FamilySpec("const", {"c": 0.0}),  # must be positive
        FamilySpec("poly_shift", {"p": 2.0, "q": 0.0}),
    ],
)
def test_family_errors(spec):
    with pytest.raises(FamilyError):
        family_instantiate(spec)


@pytest.mark.parametrize("family,name,value,message", [
    ("nope", "c", 1.0, "unknown family 'nope' (known: const, exp_affine, exp_linear, poly_shift)"),
    ("const", "k", 1.0, "family 'const': unexpected ['k']"),
    ("exp_linear", "k", math.nan, "parameter 'k' must be finite, got nan"),
    ("exp_affine", "c", -0.0, "parameter 'c' must be > 0, got -0.0"),
    ("poly_shift", "q", 0, "parameter 'q' must be > 0, got 0.0"),
])
def test_check_family_value_refuses(family, name, value, message):
    with pytest.raises(FamilyError) as info:
        check_family_value(family, name, value)
    assert str(info.value) == message


def test_check_family_value_returns_a_float():
    assert [check_family_value("poly_shift", "p", -2), check_family_value("exp_linear", "k", -0.0)] == [-2.0, -0.0]
    assert math.copysign(1.0, check_family_value("exp_linear", "k", -0.0)) == -1.0
