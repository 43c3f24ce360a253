"""
Membership checks and the hypothesis gate
=========================================

Every inequality here assumes the function lies in a multiplicative
convexity class on [0, b/m]. The classifier samples that defining
inequality on a deterministic grid plus seeded random triples; the verifier
runs it first and refuses to produce a numeric verdict when it fails.
"""

from hhverify import ClassParams, Interval, check_alpha_m_log_convex, parse, verify_theorem

# exp(x) passes for any m at alpha = 1 ...
report = check_alpha_m_log_convex(parse("exp(x)"), 2.0, ClassParams(m=0.5))
print(f"exp(x), m=0.5:      {report.verdict} ({report.samples} samples)")

# ... but not with alpha = 0.5, and the report carries a replayable witness.
report = check_alpha_m_log_convex(parse("exp(x)"), 2.0, ClassParams(m=1.0, alpha=0.5))
w = report.worst_violation
print(f"exp(x), alpha=0.5:  {report.verdict}")
print(f"  worst triple: x={w.x:g} y={w.y:g} t={w.t:g} deficit={w.deficit:.3e}")

# x^2 + 1 is log-convex on [1, 2] but not on [0, 2], and the gate samples
# the full class domain [0, b/m]. The point check therefore comes back
# inconclusive rather than pretending the theorem applies.
quad = parse("x^2+1")
gated = verify_theorem("dr1", quad, Interval(1.0, 2.0))
print(f"\ndr1 gated:   {gated.verdict}")
print(f"  {gated.diagnostics}")

# Switching the gate off turns the same point into an honest numeric
# comparison, which shows the chain genuinely breaking off the class.
ungated = verify_theorem("dr1", quad, Interval(1.0, 2.0), check_hypothesis=False)
print(f"dr1 ungated: {ungated.verdict} margin={ungated.margin:+.6g}")
print(f"  {ungated.diagnostics}")
