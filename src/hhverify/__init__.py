"""Numerical verification of integral-mean inequalities for log-convex type functions.

The package checks, over user-chosen functions and parameter grids, a set
of Hadamard-style bounds relating the integral mean of a positive function
(and the mean of a symmetrized geometric kernel) to closed forms built
from endpoint values and logarithmic means. Functions enter either as
small expressions in x or as members of registered parametric families;
class membership itself can be sampled. See the command line tool
``hhverify`` for the same operations without writing code.
"""
from .bounds import ChainTerm, Endpoints, exp_mean_factor
from .classify import (
    ClassificationReport,
    ClassParams,
    SampleEvaluationError,
    Violation,
    check_alpha_m_log_convex,
)
from .funcspec import (
    DomainError,
    EvaluationError,
    ExpressionError,
    ExprSyntaxError,
    FamilyError,
    FamilySpec,
    FunctionExpr,
    PositivityError,
    UnknownIdentifierError,
    family_instantiate,
    parse,
    registered_families,
    unparse,
)
from .means import arithmetic_mean, geometric_mean, logarithmic_mean
from .quadrature import IntegrandError, Interval, QuadResult, integrate, mean_integral
from .verify import (
    HOLDS,
    HYP_FAIL,
    HYP_PASS,
    HYP_SKIPPED,
    INAPPLICABLE,
    INCONCLUSIVE,
    THEOREMS,
    VIOLATED,
    InequalityReport,
    ReportParams,
    SearchResult,
    SweepSummary,
    margin_tolerance,
    replay_verdict,
    search_min_margin,
    sweep,
    verify_theorem,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # means
    "arithmetic_mean", "geometric_mean", "logarithmic_mean",
    # quadrature
    "Interval", "QuadResult", "IntegrandError", "integrate", "mean_integral",
    # function specs
    "FunctionExpr", "FamilySpec", "parse", "unparse", "family_instantiate",
    "registered_families", "ExpressionError", "ExprSyntaxError",
    "UnknownIdentifierError", "EvaluationError", "DomainError",
    "PositivityError", "FamilyError",
    # classification
    "ClassParams", "ClassificationReport", "Violation", "SampleEvaluationError",
    "check_alpha_m_log_convex",
    # bounds and chain terms
    "Endpoints", "ChainTerm", "exp_mean_factor",
    # verification
    "THEOREMS", "HOLDS", "VIOLATED", "INAPPLICABLE", "INCONCLUSIVE",
    "HYP_PASS", "HYP_FAIL", "HYP_SKIPPED",
    "ReportParams", "InequalityReport", "SweepSummary",
    "SearchResult", "margin_tolerance", "replay_verdict",
    "verify_theorem", "verify_theorems", "sweep", "search_min_margin",
]
