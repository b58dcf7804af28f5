"""Choosing the backlash level that makes compliance optimal.

Going the other way: fix the effort society wants, then find the
public-backlash requirement whose threat makes exactly that effort the
platform's stable floor. The threat only works if the backlash level is
expensive enough to hold over the platform, so a low effort ceiling can
make the design infeasible.
"""

import numpy as np

from regmdp import (
    CostModel,
    DriftModel,
    HarmModel,
    InsufficientMaxEffortError,
    RegulationMdp,
    StateSpace,
    WelfareModel,
    build_action_grid,
    design_backlash,
    optimal_threshold,
    socially_optimal_effort,
)

harm = HarmModel(0.1, 0.9, 3.0)
cost = CostModel(0.5, 0.1)
welfare = WelfareModel(harm, cost, damage=2.0)
e_star = socially_optimal_effort(welfare)
print(f"target effort e* = {e_star:.6f}")

# the requirement ladder the regulator already runs in calm times,
# topped by a placeholder the designer will replace
template = StateSpace(np.append(np.linspace(0.0, 0.9, 10), 2.5))
drift = DriftModel.constant(0.3, template.n_states)

print("\nwith the effort ceiling at 1.0 the design has no room:")
try:
    design_backlash(welfare, 0.9, template, drift, tol=1e-6, e_max=1.0)
except InsufficientMaxEffortError as err:
    print(f"  {err}")
    print(f"  bracket constant K       = {err.k_constant:.6f}")
    print(f"  lifetime cost at ceiling = {err.cost_at_max / (1 - 0.9):.6f}")

print("\nraising the ceiling to 2.5 makes it work:")
design = design_backlash(welfare, 0.9, template, drift, tol=1e-6, e_max=2.5)
print(f"  designed backlash level  = {design.designed_e_h:.6f}")
print(f"  stable floor it induces  = {design.achieved_threshold:.6f}")
print(f"  hold margin at e*        = {design.residual:.2e}  (per period; 0 is break-even)")
print(f"  degenerate               = {design.degenerate}")


def stable_floor(e_h: float) -> float:
    """Re-solve the chain with the top level replaced by e_h."""
    levels = np.append(template.levels[:-1], e_h)
    space = StateSpace(levels)
    actions = build_action_grid(2.5, 1e-3, space.levels)
    mdp = RegulationMdp(space, actions, harm, cost, drift, gamma=0.9)
    return optimal_threshold(mdp, refine_tol=1e-6)


print("\nweaker backlash levels fall short of the target:")
for e_h in (1.0, 1.2, 1.4, design.designed_e_h):
    mark = "  <- the designed level" if abs(e_h - design.designed_e_h) < 1e-9 else ""
    print(f"  backlash {e_h:.4f} -> stable floor {stable_floor(e_h):.6f}{mark}")
