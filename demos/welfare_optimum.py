"""Where society wants moderation effort to sit.

Harm falls exponentially with effort while cost grows quadratically, so
expected welfare -h(e) * damage - c(e) is strictly concave and has a single
peak. This sweep shows the curve, the first-order condition, and how the
optimum moves with the damage a harm event causes.
"""

import numpy as np

from regmdp import CostModel, HarmModel, WelfareModel, socially_optimal_effort

harm = HarmModel(h_min=0.1, h_max=0.9, k=3.0)
cost = CostModel(a=0.5, b=0.1)

print("effort   harm    cost    welfare (damage = 2)")
welfare = WelfareModel(harm, cost, damage=2.0)
for e in np.linspace(0.0, 1.0, 11):
    print(
        f"  {e:.2f}   {harm.prob(e):.4f}  {cost.value(e):.4f}   "
        f"{welfare.expected_welfare(e):+.6f}"
    )

e_star = socially_optimal_effort(welfare)
print(f"\noptimal effort e* = {e_star:.6f}")
print(f"welfare at e*     = {welfare.expected_welfare(e_star):+.6f}")
print(f"marginal welfare  = {welfare.marginal_welfare(e_star):+.2e} (zero at the peak)")

print("\nthe optimum rises with the damage at stake:")
for damage in (0.5, 1.0, 2.0, 5.0, 20.0):
    w = WelfareModel(harm, cost, damage)
    print(f"  damage {damage:5.1f} -> e* = {socially_optimal_effort(w):.6f}")
print("(at damage 20 the ceiling of 1.0 binds)")
