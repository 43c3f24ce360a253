"""Positive-function specifications.

A function under test is either parsed from a tiny expression language or
instantiated from a registered parametric family. Either way it becomes an
immutable :class:`FunctionExpr` whose ``evaluate`` returns a strictly
positive finite float or raises a typed error.

Expression grammar::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-" factor) | power
    power  := atom ("^" factor)?          # right-associative
    atom   := NUMBER | "x" | "e" | "pi" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "exp" | "ln" | "sqrt"

NUMBER is a decimal literal with optional exponent. Positivity is a
property of evaluation, not of the syntax: "x-5" parses fine and fails
only when evaluated at a point where it is not strictly positive. An
expression may nest at most MAX_DEPTH = 400 operators and function calls
on any path from the root to a leaf (parentheses alone do not count);
deeper input is a syntax error.

Evaluation runs generated code: :func:`generate` writes Python source for
the expression tree, one assignment per operator node, and binds it to
either the ``math`` or the ``numpy`` functions. Its results are the bits
of evaluating the tree node by node with those functions.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Union

if TYPE_CHECKING:  # numpy is imported on first use, not with the package
    import numpy as np

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FunctionExpr",
    "FamilySpec",
    "ExpressionError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "EvaluationError",
    "DomainError",
    "PositivityError",
    "FamilyError",
    "MAX_DEPTH",
    "parse",
    "unparse",
    "generate",
    "family_instantiate",
    "family_parameters",
    "check_family_value",
    "registered_families",
]


# ---------------------------------------------------------------------------
# errors


class ExpressionError(Exception):
    """Base class for expression parsing and evaluation failures."""


class ExprSyntaxError(ExpressionError):
    """Malformed expression text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class EvaluationError(ExpressionError):
    """Evaluation failed; ``x`` is the abscissa that triggered it."""

    def __init__(self, message: str, x: float):
        super().__init__(f"{message} at x={x!r}")
        self.x = x


class DomainError(EvaluationError):
    """ln/sqrt of a negative quantity, division by zero, or 0^negative."""


class PositivityError(EvaluationError):
    """The final value was not a strictly positive finite real."""


class FamilyError(Exception):
    """Unknown family name or parameter outside its legal range."""


# ---------------------------------------------------------------------------
# expression nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "exp" | "ln" | "sqrt"
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]

_FUNCS = ("exp", "ln", "sqrt")
_CONSTANTS = {"e": math.e, "pi": math.pi}


# ---------------------------------------------------------------------------
# tokenizer / parser

# One token after optional whitespace: a decimal literal, a name, an operator,
# or the end of the text (\Z, since $ also matches before a final newline).
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<end>\Z))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while True:
        match = _TOKEN_RE.match(text, i)
        if match is None:
            i = len(text) - len(text[i:].lstrip())  # the first character that is not a space
            raise ExprSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = match.lastgroup
        tokens.append(_Token(kind, match[kind], match.start(kind)))
        if kind == "end":
            return tokens
        i = match.end()


MAX_DEPTH = 400

# binary operator -> (precedence, right-associative); prefix minus sits
# between "*" and "^", so -x^2 is -(x^2) and -x*2 is (-x)*2
_BINARY = {"+": (1, False), "-": (1, False), "*": (2, False), "/": (2, False), "^": (4, True)}
_NEG_PREC = 3
_GROUP_PREC = 0  # an open "(" or FUNC "(": no operator reduces past it


def _parse_tokens(tokens: list[_Token]) -> Node:
    """Parse the grammar above with explicit stacks instead of recursion.

    Recursive descent costs several interpreter frames per nesting level,
    which a legal input of MAX_DEPTH nested calls would overflow. Errors
    are raised at the same token, with the same message, as a recursive
    descent over the grammar would raise them.
    """
    operands: list[tuple[Node, int]] = []  # (subtree, its depth)
    pending: list[tuple[str, int, int]] = []  # (operator, "(" or FUNC name; precedence; offset)
    groups = 0  # open parentheses, including those of FUNC calls

    def push(node: Node, depth: int, offset: int) -> None:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", offset)
        operands.append((node, depth))

    def reduce() -> None:
        """Apply the operator or FUNC on top of ``pending`` to its operands."""
        op, _, offset = pending.pop()
        right, depth = operands.pop()
        if op in _BINARY:
            left, left_depth = operands.pop()
            push(Binary(op, left, right), max(left_depth, depth) + 1, offset)
        else:
            push(Unary(op, right), depth + 1, offset)

    i = 0
    while True:
        # operand position: a prefix minus, an opening parenthesis, or an atom
        t = tokens[i]
        i += 1
        if t.kind == "op" and t.text == "-":
            pending.append(("neg", _NEG_PREC, t.pos))
            continue
        if t.kind == "op" and t.text == "(":
            pending.append(("(", _GROUP_PREC, t.pos))
            groups += 1
            continue
        if t.kind == "num":
            value = float(t.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"numeric literal {t.text!r} overflows", t.pos)
            operands.append((Const(value), 0))
        elif t.kind == "ident" and t.text == "x":
            operands.append((Var(), 0))
        elif t.kind == "ident" and t.text in _CONSTANTS:
            operands.append((Const(_CONSTANTS[t.text]), 0))
        elif t.kind == "ident" and t.text in _FUNCS:
            if not (tokens[i].kind == "op" and tokens[i].text == "("):
                raise ExprSyntaxError("expected '('", tokens[i].pos)
            pending.append((t.text, _GROUP_PREC, t.pos))
            groups += 1
            i += 1
            continue
        elif t.kind == "ident":
            raise UnknownIdentifierError(t.text, t.pos)
        else:
            raise ExprSyntaxError("expected a number, name, or '('", t.pos)

        # operator position: close groups until a binary operator or the end
        while True:
            t = tokens[i]
            if t.kind == "op" and t.text in _BINARY:
                prec, right_assoc = _BINARY[t.text]
                while pending and (pending[-1][1] > prec or (pending[-1][1] == prec and not right_assoc)):
                    reduce()
                pending.append((t.text, prec, t.pos))
                i += 1
                break
            if t.kind == "op" and t.text == ")" and groups:
                while pending[-1][1] != _GROUP_PREC:
                    reduce()
                if pending[-1][0] == "(":
                    pending.pop()
                else:
                    reduce()
                groups -= 1
                i += 1
                continue
            if groups:
                raise ExprSyntaxError("expected ')'", t.pos)
            if t.kind != "end":
                raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.pos)
            while pending:
                reduce()
            return operands[0][0]


def parse(text: str) -> "FunctionExpr":
    """Parse expression text into a FunctionExpr.

    Raises:
        ExprSyntaxError: malformed input, or nesting deeper than MAX_DEPTH,
            with the byte offset of the problem.
        UnknownIdentifierError: for names outside {x, e, pi, exp, ln, sqrt}.
    """
    return FunctionExpr(_parse_tokens(_tokenize(text)))


# ---------------------------------------------------------------------------
# unparsing

_PREC = {**{op: prec for op, (prec, _) in _BINARY.items()}, "neg": _NEG_PREC}
_ATOM_PREC = 5


def _prec(node: Node) -> int:
    if isinstance(node, (Const, Var)):
        return _ATOM_PREC
    if isinstance(node, Unary):
        return _ATOM_PREC if node.op in _FUNCS else _PREC["neg"]
    return _PREC[node.op]


def _to_text(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Unary):
        if node.op == "neg":
            arg = _to_text(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                arg = f"({arg})"
            return f"-{arg}"
        return f"{node.op}({_to_text(node.arg)})"
    p = _PREC[node.op]
    left, right = _to_text(node.left), _to_text(node.right)
    if node.op == "^":
        # right-associative: parenthesize the left operand on ties
        if _prec(node.left) <= p:
            left = f"({left})"
        if _prec(node.right) < p:
            right = f"({right})"
    else:
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left}{node.op}{right}"


def unparse(f: "FunctionExpr") -> str:
    """Render ``f`` back to expression text that re-parses to the same tree."""
    return _to_text(f.root)


# ---------------------------------------------------------------------------
# compilation and evaluation


# operator -> source template, and the names of the backend's module the
# generated code may use; "numpy" calls ufuncs even on scalars, so 1/0 gives
# inf. The module is imported by the first compilation, so that importing
# the package does not import numpy.
_BACKENDS: dict[str, tuple[dict[str, str], tuple[str, ...]]] = {
    "math": (
        {
            "neg": "-{0}", "exp": "exp({0})", "ln": "log({0})", "sqrt": "sqrt({0})",
            "+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}", "/": "{0} / {1}", "^": "pow({0}, {1})",
        },
        # math.pow, not **: ** turns a negative base with a fractional
        # exponent into a complex number instead of raising
        ("exp", "log", "sqrt", "pow", "inf", "nan"),
    ),
    "numpy": (
        {
            "neg": "negative({0})", "exp": "exp({0})", "ln": "log({0})", "sqrt": "sqrt({0})",
            "+": "add({0}, {1})", "-": "subtract({0}, {1})", "*": "multiply({0}, {1})",
            "/": "divide({0}, {1})", "^": "power({0}, {1})",
        },
        ("negative", "exp", "log", "sqrt", "add", "subtract", "multiply", "divide", "power"),
    ),
}

# A line "NAME = f(ARG)" of a template, ARG a plain name.
_INLINE_RE = re.compile(r"^( *)(\w+) = f\((\w+)\)$", re.MULTILINE)

# Compiled factories kept, one per (template, backend, expression shape,
# bound names); they hold code, never results.
CODE_CACHE_SIZE = 256

# The shape of a tree: "c" for a constant, "x" for x, (op, *operands) for
# an operator node. Constants are left out, so functions that differ only
# in their constants share a shape and a compiled factory.
_Shape = Union[str, tuple]


def _shape_of(root: Node) -> tuple[_Shape, list[float]]:
    """The shape of ``root`` and its constants, left to right."""
    consts: list[float] = []

    def visit(node: Node) -> _Shape:
        if isinstance(node, Const):
            consts.append(node.value)
            return "c"
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Unary):
            return (node.op, visit(node.arg))
        return (node.op, visit(node.left), visit(node.right))

    return visit(root), consts


def _emit(shape: _Shape, arg: str, out: str, ops: Mapping[str, str]) -> list[str]:
    """Source lines that compute ``shape`` at ``arg`` into ``out``.

    One assignment per operator node, never a nested expression, so the
    source stays flat at any depth. The k-th constant from the left is read
    from the name ``c<k>``. Intermediates live in names ``<out>_<k>`` used
    as a stack of registers: a node's value overwrites its first operand's
    register. With the numpy backend this frees an intermediate array
    about when nested calls would, so later results can reuse its memory;
    a distinct name per node kept every array alive to the end and made
    the classifier's evaluations a third slower.
    """
    lines: list[str] = []
    consts = itertools.count()

    def visit(node: _Shape, reg: int, target: str | None = None) -> str:
        if node == "c":
            name = f"c{next(consts)}"
        elif node == "x":
            name = arg
        else:
            if len(node) == 2:
                code = ops[node[0]].format(visit(node[1], reg))
            else:
                code = ops[node[0]].format(visit(node[1], reg), visit(node[2], reg + 1))
            name = target or f"{out}_{reg}"
            lines.append(f"{name} = {code}")
            return name
        if target:
            lines.append(f"{target} = {name}")
        return name

    visit(shape, 0, out)
    return lines


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _factory(template: str, backend: str, shape: _Shape, n_consts: int, names: tuple[str, ...]) -> Callable:
    """Compile ``template`` with ``shape`` inlined into a factory of ``g``.

    The factory takes the constants, then the ``names`` values, and returns
    ``g`` with those bound.
    """
    ops, module_names = _BACKENDS[backend]
    module = importlib.import_module(backend)

    def inline(match: re.Match) -> str:
        indent, out, arg = match.groups()
        return "\n".join(indent + line for line in _emit(shape, arg, out, ops))

    params = [f"c{k}" for k in range(n_consts)] + list(names)
    source = f"def _factory({', '.join(params)}):\n" + "".join(
        f"    {line}\n" for line in _INLINE_RE.sub(inline, template).splitlines()
    ) + "    return g\n"
    scope = {name: getattr(module, name) for name in module_names}
    exec(compile(source, "<hhverify generated>", "exec"), scope)
    return scope["_factory"]


def generate(f: "FunctionExpr", template: str, backend: str = "math", **bound) -> Callable:
    """Compile ``template`` with ``f`` inlined, and return what it binds to ``g``.

    ``template`` is source that binds the name ``g``, usually by defining a
    function of that name (quadrature's binds a pair of them). Each of its
    lines of the form ``NAME = f(ARG)``, with ARG a plain name, is replaced
    by ``f``'s body evaluated at ARG, one assignment per node, using the
    backend's operators and functions ("math": math.exp, math.log,
    math.sqrt, math.pow, inf, nan; "numpy": the matching ufuncs). The
    keywords in ``bound`` are names the template may read. No check is
    added: raising and positivity are up to the template.

    The constants of ``f`` are parameters of the compiled code, so one
    compilation serves every function of the same shape; no text of the
    expression reaches the source.
    """
    shape, consts = f._signature
    names = tuple(sorted(bound))
    factory = _factory(template, backend, shape, len(consts), names)
    return factory(*consts, *[bound[name] for name in names])


_EVALUATOR = """\
def g(x):
    y = f(x)
    return y
"""


@dataclass(frozen=True)
class FunctionExpr:
    """An immutable specification of a function meant to map [0, B] to (0, inf).

    Equality and hashing are structural (on the expression tree). The
    generated evaluators are built on first use and kept per instance.
    """

    root: Node

    @cached_property
    def _signature(self) -> tuple[_Shape, list[float]]:
        return _shape_of(self.root)

    @cached_property
    def _scalar(self) -> Callable[[float], float]:
        return generate(self, _EVALUATOR)

    @cached_property
    def _vector(self) -> Callable[[np.ndarray], np.ndarray]:
        return generate(self, _EVALUATOR, backend="numpy")

    def evaluate(self, x: float) -> float:
        """Evaluate at ``x``; the result is a strictly positive finite float.

        Node semantics are plain IEEE round-to-nearest arithmetic.

        Raises:
            DomainError: ln or sqrt of an out-of-domain quantity, division
                by zero, or 0 raised to a negative power.
            PositivityError: the final value is <= 0, or overflowed.
        """
        try:
            y = self._scalar(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(str(exc) or "math domain error", x) from exc
        except OverflowError as exc:
            raise PositivityError("value overflowed to non-finite", x) from exc
        if not (math.isfinite(y) and y > 0.0):
            raise PositivityError(f"value {y!r} is not strictly positive", x)
        return y

    def evaluate_array(self, xs) -> np.ndarray:
        """Vectorized evaluation with no positivity policing.

        Out-of-domain points come back as nan or +-inf instead of raising;
        callers that need the strict contract must mask for finiteness and
        positivity themselves (the grid classifier does exactly that).
        """
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            ys = self._vector(xs)
        if np.ndim(ys) == 0:
            return np.full(xs.shape, float(ys))
        return ys

    def __str__(self) -> str:
        return unparse(self)


# ---------------------------------------------------------------------------
# registered families


@dataclass(frozen=True)
class FamilySpec:
    """A point in a named parametric family, e.g. FamilySpec("exp_linear", {"k": 2.0})."""

    name: str
    params: Mapping[str, float]


def _build_const(c: float) -> Node:
    return Const(c)


def _build_exp_linear(k: float) -> Node:
    return Unary("exp", Binary("*", Const(k), Var()))


def _build_exp_affine(c: float, k: float) -> Node:
    return Binary("*", Const(c), Unary("exp", Binary("*", Const(k), Var())))


def _build_poly_shift(p: float, q: float) -> Node:
    return Binary("+", Binary("^", Var(), Const(p)), Const(q))


# name -> (builder, its parameters in the builder's order, each mapped to
# whether its value must be > 0; every value must be finite)
_FAMILIES: dict[str, tuple[Callable[..., Node], dict[str, bool]]] = {
    "const": (_build_const, {"c": True}),
    "exp_linear": (_build_exp_linear, {"k": False}),
    "exp_affine": (_build_exp_affine, {"c": True, "k": False}),
    "poly_shift": (_build_poly_shift, {"p": False, "q": True}),
}


def registered_families() -> dict[str, tuple[str, ...]]:
    """Return {family name: ordered parameter names} for all registered families."""
    return {name: tuple(entry[1]) for name, entry in _FAMILIES.items()}


def family_parameters(family: str, given: Optional[Iterable[str]] = None) -> tuple[str, ...]:
    """The ordered parameter names of ``family``.

    Raises:
        FamilyError: unknown family, or ``given`` names that are not exactly these.
    """
    if family not in _FAMILIES:
        raise FamilyError(f"unknown family {family!r} (known: {', '.join(sorted(_FAMILIES))})")
    names = tuple(_FAMILIES[family][1])
    if given is not None and set(given) != set(names):
        missing, extra = sorted(set(names) - set(given)), sorted(set(given) - set(names))
        parts = [f"{word} {found}" for word, found in (("missing", missing), ("unexpected", extra)) if found]
        raise FamilyError(f"family {family!r}: " + ", ".join(parts))
    return names


def check_family_value(family: str, name: str, value: float) -> float:
    """``value`` as a float, or FamilyError if parameter ``name`` of ``family`` may not take it."""
    if name not in family_parameters(family):
        raise FamilyError(f"family {family!r}: unexpected {[name]}")
    v = float(value)
    if not math.isfinite(v):
        raise FamilyError(f"parameter {name!r} must be finite, got {v!r}")
    if _FAMILIES[family][1][name] and not v > 0.0:
        raise FamilyError(f"parameter {name!r} must be > 0, got {v!r}")
    return v


def family_instantiate(spec: FamilySpec) -> FunctionExpr:
    """Instantiate a family member as a FunctionExpr.

    Raises:
        FamilyError: unknown family, missing/unexpected parameter names,
            a non-finite parameter value, or a value outside its range.
    """
    names = family_parameters(spec.name, spec.params)
    values = [check_family_value(spec.name, name, spec.params[name]) for name in names]
    return FunctionExpr(_FAMILIES[spec.name][0](*values))
