"""Simulated returns against the exact linear-solve values.

The linear solve gives each policy value in closed form, so Monte Carlo
rollouts serve as an independent cross-check rather than the primary tool.
Episodes are truncated at a horizon whose geometric tail bound keeps the
bias below a stated target, and batches draw from per-batch SFC64 streams,
keyed by SeedSequence spawn keys, so the estimate is reproducible regardless
of scheduling. SFC64 is NumPy's fastest generator for these uniforms; the
streams are never advanced or jumped, so a counter-based one would add nothing.
"""

from regmdp import (
    CostModel,
    DriftModel,
    HarmModel,
    Policy,
    RegulationMdp,
    agreement_z,
    build_action_grid,
    build_state_space,
    estimate_value,
    evaluate_threshold_policy,
    minimal_horizon,
    optimal_threshold,
    sample_trajectory,
    truncation_bound,
)

harm = HarmModel(0.1, 0.9, 3.0)
cost = CostModel(0.5, 0.1)
space = build_state_space(0.0, 1.0, 11, backlash_effort=1.0)
actions = build_action_grid(1.0, 1e-3, space.levels)
drift = DriftModel.constant(0.3, space.n_states)
mdp = RegulationMdp(space, actions, harm, cost, drift, gamma=0.9)

tau = optimal_threshold(mdp, refine_tol=1e-6)
policy = Policy.threshold(space, tau)
exact = evaluate_threshold_policy(mdp, tau)

h = minimal_horizon(mdp, max_bias=1e-6)
print(f"policy: stable threshold at {tau:.6f}")
print(f"horizon {h} keeps the truncation bias under 1e-6 "
      f"(bound {truncation_bound(mdp, h):.2e})")

print("\none trajectory from the backlash state, first 10 steps (seed 5):")
traj = sample_trajectory(mdp, policy, seed=5, horizon=10)
for t, step in enumerate(traj.steps):
    flag = "harm -> backlash" if step.harm else ""
    print(f"  t={t}  required {step.state:.2f}  played {step.action:.4f}  "
          f"reward {step.reward:+.4f}  {flag}")

print("\nestimates from 200000 episodes (seed 3):")
print("start    estimate      exact        |err|      95% half-width     z")
worst = 0.0
for start in (None, 0.0, 0.5):
    est = estimate_value(mdp, policy, start_level=start, n_episodes=200_000, seed=3)
    level = space.levels[space.backlash_index] if start is None else start
    truth = float(exact.values[space.index_of(level)])
    err = abs(est.mean - truth)
    z = agreement_z(est, truth)
    worst = max(worst, abs(z))
    label = "top" if start is None else f"{start:.1f}"
    print(f"  {label:4s}  {est.mean:+.6f}  {truth:+.6f}   {err:.2e}   {est.half_width_95:.2e}"
          f"       {z:+.2f}")
# a correct sampler leaves |z| > 1.96 one run in twenty, but |z| > 4 almost never
print(f"largest |z| beyond truncation and rounding: {worst:.2f} "
      f"({'within' if worst <= 4.0 else 'beyond'} 4 standard errors)")
