"""How much effort the platform actually settles on.

The regulator tracks a required effort level that drifts down in calm
periods and jumps to a public-backlash level when a harm event lands. The
platform plays a threshold: exert at least some floor everywhere, meet the
requirement where it is higher. The stable floor trades today's moderation
cost against the discounted risk of being thrown back to the top.
"""

import numpy as np

from regmdp import (
    CostModel,
    DriftModel,
    HarmModel,
    RegulationMdp,
    WelfareModel,
    build_action_grid,
    build_state_space,
    evaluate_threshold_policy,
    optimal_threshold,
    overreaction_gap,
    socially_optimal_effort,
    value_iteration,
)

harm = HarmModel(0.1, 0.9, 3.0)
cost = CostModel(0.5, 0.1)
space = build_state_space(0.0, 1.0, 11, backlash_effort=1.0)
actions = build_action_grid(1.0, 1e-3, space.levels)
drift = DriftModel.constant(0.3, space.n_states)
mdp = RegulationMdp(space, actions, harm, cost, drift, gamma=0.9)

e_hat = optimal_threshold(mdp, refine_tol=1e-6)
print(f"stable effort floor e^ = {e_hat:.6f}")

values = evaluate_threshold_policy(mdp, e_hat)
print("\nrequired  played   value")
for level, v in zip(space.levels, values.values):
    played = max(e_hat, level)
    print(f"   {level:.2f}    {played:.4f}  {v:+.6f}")
print("(every state at or below the floor shares one value)")

# independent check: sweep all thresholds on the action grid
sweep = [evaluate_threshold_policy(mdp, float(t)).values[0] for t in actions.efforts]
best = float(actions.efforts[int(np.argmax(sweep))])
print(f"\nbrute-force best threshold = {best:.6f} (matches to grid resolution)")

_, vi_values = value_iteration(mdp, tol=1e-12)
gap = float(np.max(np.abs(vi_values.values - values.values)))
print(f"value iteration agrees with the threshold policy to {gap:.2e}")

welfare = WelfareModel(harm, cost, damage=2.0)
e_star = socially_optimal_effort(welfare)
g = overreaction_gap(mdp, welfare, refine_tol=1e-6)
print(f"\nsocially optimal effort e* = {e_star:.6f}")
print(f"overreaction gap e^ - e*   = {g:+.6f}")
print("negative: this backlash level is too soft and the platform under-complies")
