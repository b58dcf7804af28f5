"""What one-shot fines can and cannot do.

Two limits of fine-based regulation. First, a fine for falling short of a
fixed requirement never pushes effort past the requirement itself: once the
platform complies, the fine exposure is gone and extra effort is pure cost.
Second, a single requirement cannot hold two platforms with different cost
structures at their respective social optima when those optima differ.
"""

import numpy as np

from regmdp import (
    CostModel,
    HarmModel,
    RampAuditFailure,
    StaticRegime,
    StepAuditFailure,
    build_action_grid,
    impossibility_report,
    static_optimal_effort,
)

harm = HarmModel(0.1, 0.9, 3.0)
cost = CostModel(0.5, 0.1)
e_c = 0.5
actions = build_action_grid(1.0, 1e-3, [e_c])

print(f"requirement e_c = {e_c}, audit probability 0.5, step failure model")
print("fine      induced effort")
for fine in (0.0, 0.1, 0.5, 2.0, 1e3, 1e9):
    regime = StaticRegime(audit_prob=0.5, fine=fine, fail_model=StepAuditFailure(p0=1.0))
    e = static_optimal_effort(regime, cost, e_c, actions)
    print(f"  {fine:9.3g}  {e:.4f}")
print("harsh fines buy exact compliance, never over-compliance")

print("\nthe cap holds across failure models and requirement levels:")
rng = np.random.default_rng(7)
worst = -np.inf
for _ in range(200):
    fam = (
        StepAuditFailure(p0=rng.uniform(0.5, 1.0))
        if rng.random() < 0.5
        else RampAuditFailure(beta=rng.uniform(1.0, 10.0))
    )
    regime = StaticRegime(rng.uniform(0.1, 1.0), rng.uniform(0.0, 1e9), fam)
    req = rng.uniform(0.05, 1.0)
    grid = build_action_grid(1.0, 1e-3, [req])
    worst = max(worst, static_optimal_effort(regime, cost, req, grid) - req)
print(f"  max induced-minus-required over 200 random regimes: {worst:+.2e}")

print("\none requirement, two cost structures:")
cheap = CostModel(0.2, 0.05)
report = impossibility_report(harm, 2.0, cost, cheap, gamma=0.9)
print(f"  platform with cost 0.5e^2 + 0.10e wants e* = {report.e_star_1:.6f}")
print(f"  platform with cost 0.2e^2 + 0.05e wants e* = {report.e_star_2:.6f}")
print(f"  candidate requirements tried: {len(report.rows)}")
print(f"  some level serves both optima: {not report.conclusion}")
records = report.records()
best1 = min(records, key=lambda r: r["welfare_loss_1"])
best2 = min(records, key=lambda r: r["welfare_loss_2"])
print(
    f"  the level best for platform 1 ({best1['required_effort']:.4f}) still costs "
    f"platform 2 a per-period welfare loss of {best1['welfare_loss_2']:.6f}"
)
print(
    f"  the level best for platform 2 ({best2['required_effort']:.4f}) still costs "
    f"platform 1 a per-period welfare loss of {best2['welfare_loss_1']:.6f}"
)
