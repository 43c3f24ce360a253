"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with measured numbers before
asserting, so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
The gated sweep is computed once per module and reused by the determinism
criterion.
"""

import hashlib
import math
import random
import time

import pytest

from hhverify import (
    ClassParams,
    FamilySpec,
    HOLDS,
    HYP_PASS,
    INAPPLICABLE,
    INCONCLUSIVE,
    Interval,
    VIOLATED,
    check_alpha_m_log_convex,
    exp_mean_factor,
    family_instantiate,
    integrate,
    logarithmic_mean,
    parse,
    sweep,
    verify_theorem,
)
from hhverify.cli import _json_value, _render, _summary_json

UNIT = Interval(0.0, 1.0)

GRID17 = tuple(i * 2.0 / 16 for i in range(17))
GATE_THEOREMS = ("eq4", "eq11", "eq22", "eq31", "eq42")
M4 = (0.25, 0.5, 0.75, 1.0)

# sha256 of the gated sweeps' JSON, concatenated in SWEEP_SPECS order
GATED_SWEEP_SHA256 = "06e5462a4dede3c41e40819067f5caf4004a82ef3d2f3af75722713de989d2cf"

# family grids x class-parameter grids for the gated membership sweep;
# every member below satisfies its class hypothesis on [0, 2 / m]
SWEEP_SPECS = (
    ("const", {"c": (0.2, 0.4, 0.6, 0.8, 1.0)}, M4, (0.5, 0.75, 1.0)),
    ("exp_linear", {"k": (0.5, 1.0, 1.5, 2.0)}, M4, (1.0,)),
    ("exp_affine", {"c": (0.25, 0.75), "k": (0.5, 1.5)}, M4, (1.0,)),
)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _run_gated_sweeps():
    return [
        (family, sweep(family, grids, GRID17, GRID17, ms, alphas, GATE_THEOREMS,
                       variant="corrected", hypothesis="once"))
        for family, grids, ms, alphas in SWEEP_SPECS
    ]


@pytest.fixture(scope="module")
def gated_sweeps():
    start = time.perf_counter()
    results = _run_gated_sweeps()
    return results, time.perf_counter() - start


def test_criterion_1_equality_family_point_checks():
    start = time.perf_counter()
    worst = 0.0
    verdicts = set()
    for k in (0.5, 1.0, 2.0):
        f = family_instantiate(FamilySpec("exp_linear", {"k": k}))
        for m in (0.5, 1.0):
            r = verify_theorem("eq4", f, UNIT, m=m, check_hypothesis=False)
            verdicts.add(r.verdict)
            worst = max(worst, abs(r.margin))
    elapsed = time.perf_counter() - start
    _criterion(
        "equality-family margins",
        worst <= 1e-8 and verdicts == {HOLDS} and elapsed < 1.0,
        f"max |margin| = {worst:.3e} over 6 points in {elapsed:.3f}s",
    )


DR2_EXPECTED = (
    ("midpoint_value", 1.2840254166877414),
    ("exp_mean_log", 1.3956124250860895),
    ("geometric_mean_integral", 1.3995545870776422),
    ("mean_integral", 1.4626517459071816),
    ("endpoint_logarithmic_mean", 1.7182818284590452),
    ("endpoint_arithmetic_mean", 1.8591409142295226),
)


def test_criterion_2_six_term_chain_oracle():
    terms = verify_theorem("dr2", parse("exp(x^2)"), UNIT, check_hypothesis=False).terms
    labels_ok = [t.label for t in terms] == [label for label, _ in DR2_EXPECTED]
    worst = max(abs(t.value - e) for t, (_, e) in zip(terms, DR2_EXPECTED))
    values = [t.value for t in terms]
    least_step = min(hi - lo for lo, hi in zip(values, values[1:]))
    _criterion(
        "six-term chain oracle",
        labels_ok and worst <= 1e-7 and least_step >= -1e-9,
        f"max deviation {worst:.3e}, least adjacent step {least_step:.3e}",
    )


def test_criterion_3_kernel_matches_logarithmic_mean():
    rng = random.Random(20260819)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        phi = rng.uniform(1e-12, 1.0 - 1e-12)
        w = rng.uniform(1e-3, 1e3)
        dev = abs(w * exp_mean_factor(phi, 1.0) - logarithmic_mean(w * phi, w))
        worst = max(worst, dev / w)
    elapsed = time.perf_counter() - start
    _criterion(
        "kernel vs logarithmic mean",
        worst <= 1e-12 and elapsed < 1.0,
        f"max scaled deviation {worst:.3e} over 10000 draws in {elapsed:.3f}s",
    )


def test_criterion_4_gated_membership_sweep(gated_sweeps):
    results, elapsed = gated_sweeps
    total = sum(len(s.reports) for _, s in results)
    points = total // len(GATE_THEOREMS)
    bad_counts = {
        family: {k: v for k, v in s.counts.items() if k != HOLDS and v}
        for family, s in results
    }
    all_gated = all(r.hypothesis == HYP_PASS for _, s in results for r in s.reports)
    clean = not any(bad_counts[family] for family, _ in results)
    _criterion(
        "gated membership sweep",
        total == 62560 and clean and all_gated and elapsed < 60.0,
        f"{total} reports over {points} points, non-holds {bad_counts}, {elapsed:.1f}s",
    )


def test_criterion_5_printed_vs_corrected_split():
    half = parse("0.5")
    deviations = []
    ok = True
    for theorem in ("eq22", "eq42"):
        printed = verify_theorem(theorem, half, UNIT, variant="printed", check_hypothesis=False)
        corrected = verify_theorem(theorem, half, UNIT, variant="corrected", check_hypothesis=False)
        ok = ok and printed.verdict == VIOLATED and abs(printed.margin + 0.25) <= 1e-12
        ok = ok and corrected.verdict == HOLDS and abs(corrected.margin) <= 1e-10
        deviations.append(f"{theorem}: printed {printed.margin:.3e}, corrected {corrected.margin:.3e}")
    _criterion("printed/corrected split on f=1/2", ok, "; ".join(deviations))


def _replay_violation(f, w, m: float, alpha: float, tol_rel: float = 1e-9) -> bool:
    lhs = f.evaluate(w.t * w.x + m * (1.0 - w.t) * w.y)
    rhs = math.exp(
        w.t**alpha * math.log(f.evaluate(w.x))
        + m * (1.0 - w.t**alpha) * math.log(f.evaluate(w.y))
    )
    return lhs > rhs * (1.0 + tol_rel)


def test_criterion_6_classifier_certificates():
    start = time.perf_counter()
    exp = parse("exp(x)")
    quad = parse("x^2+1")
    ok = True
    for i in range(1, 11):
        ok = ok and check_alpha_m_log_convex(exp, 2.0, ClassParams(i / 10.0)).verdict == "pass"
    fail_quad = check_alpha_m_log_convex(quad, 2.0, ClassParams(1.0))
    ok = ok and fail_quad.verdict == "fail"
    ok = ok and _replay_violation(quad, fail_quad.worst_violation, 1.0, 1.0)
    fail_exp = check_alpha_m_log_convex(exp, 2.0, ClassParams(m=1.0, alpha=0.5))
    ok = ok and fail_exp.verdict == "fail"
    ok = ok and fail_exp.worst_violation.x < fail_exp.worst_violation.y
    ok = ok and _replay_violation(exp, fail_exp.worst_violation, 1.0, 0.5)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _criterion(
        "classifier certificates",
        ok,
        f"10 passes, 2 replayed failures in {elapsed:.2f}s",
    )


def test_criterion_7_quadrature_and_mean_foundations():
    res = integrate(lambda x: x**3 - 2.0 * x**2 + 3.0 * x - 1.0, Interval(0.0, 2.0), 1e-10)
    cubic_dev = abs(res.value - 8.0 / 3.0)
    ok = cubic_dev <= 1e-13 and res.evals == 5

    rng = random.Random(777)
    worst = 0.0
    for _ in range(10_000):
        p = 10.0 ** rng.uniform(-6.0, 6.0)
        q = 10.0 ** rng.uniform(-6.0, 6.0)
        g = math.sqrt(p * q)
        l = logarithmic_mean(p, q)
        a = 0.5 * (p + q)
        worst = max(worst, (g - l) / l, (l - a) / a)
    ok = ok and worst <= 1e-12
    ok = ok and all(logarithmic_mean(p, p) == p for p in (0.3, 1.0, 7.5))
    _criterion(
        "quadrature and mean foundations",
        ok,
        f"cubic off by {cubic_dev:.2e} in {res.evals} evals; worst mean-ordering slack {worst:.2e}",
    )


def test_criterion_8_byte_identical_reruns(gated_sweeps):
    results, _ = gated_sweeps
    first = [_summary_json(s, _render(s.reports)[0]) for _, s in results]
    second = [_summary_json(s, _render(s.reports)[0]) for _, s in _run_gated_sweeps()]

    def classification_blob() -> str:
        reports = [check_alpha_m_log_convex(parse("exp(x)"), 2.0, ClassParams(i / 10.0)) for i in range(1, 11)]
        reports.append(check_alpha_m_log_convex(parse("x^2+1"), 2.0, ClassParams(1.0)))
        reports.append(check_alpha_m_log_convex(parse("exp(x)"), 2.0, ClassParams(1.0, 0.5)))
        payload = []
        for r in reports:
            w = r.worst_violation
            payload.append({
                "verdict": r.verdict,
                "samples": r.samples,
                "worst": None if w is None else [w.x, w.y, w.t, w.lhs, w.rhs, w.deficit],
            })
        return _json_value(payload)

    class_first = classification_blob()
    class_second = classification_blob()
    sweeps_match = first == second
    classes_match = class_first == class_second
    golden = hashlib.sha256("".join(first).encode()).hexdigest() == GATED_SWEEP_SHA256
    _criterion(
        "byte-identical reruns",
        sweeps_match and classes_match and golden,
        f"{sum(map(len, first))} sweep bytes and {len(class_first)} classification bytes reproduced,"
        f" sweep digest {'matches' if golden else 'differs'}",
    )
