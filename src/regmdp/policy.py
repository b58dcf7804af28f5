"""Exact policy evaluation, action values, and brute-force optimization.

Values come from solving the linear fixed point v = r + gamma * P v directly,
so every value function returned here carries linear-algebra noise only.
Policy iteration over the full action grid is retained purely as an
independent optimality oracle for cross-checks; nothing else depends on it.

All functions are pure functions of immutable inputs, so sweeps over policies
or thresholds may run concurrently without coordination.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError
from .mdp import Policy, RegulationMdp, StateSpace

BELLMAN_RESIDUAL_TOL = 1e-10
_IMPROVEMENT_TOL = 1e-9  # a smaller one-step gain is rounding, not an improvement
_IMPROVEMENT_STEPS = 100  # policy iteration's guard; it settles in a handful
_SHARED_VALUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Expected discounted reward per state, aligned with a state space."""

    space: StateSpace
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != self.space.levels.shape:
            raise DomainError("value function needs exactly one value per state")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])

    @property
    def at_backlash(self) -> float:
        return float(self.values[-1])


def _require_same_space(mdp: RegulationMdp, space: StateSpace):
    if space is mdp.space:
        return
    if space.levels.shape != mdp.space.levels.shape or not np.allclose(
        space.levels, mdp.space.levels, rtol=0.0, atol=1e-12
    ):
        raise FeasibilityError("policy and MDP are defined on different state spaces")


def evaluate_policy(mdp: RegulationMdp, policy: Policy) -> ValueFunction:
    """Exact discounted value of a stationary policy.

    Solves (I - gamma * P) v = r and refuses to return anything whose Bellman
    residual exceeds 1e-10 in any state.
    """
    _require_same_space(mdp, policy.space)
    r = -np.asarray(mdp.cost.value(policy.efforts))
    p = mdp.transition_matrix(policy.efforts)
    n = mdp.space.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p, r)
    residual = float(np.max(np.abs(v - (r + mdp.gamma * (p @ v)))))
    if residual > BELLMAN_RESIDUAL_TOL:
        raise RuntimeError(f"policy evaluation left a Bellman residual of {residual:.3g}")
    floor = -float(mdp.cost.value(mdp.actions.e_max))
    if mdp.gamma > 0:
        floor /= 1.0 - mdp.gamma
    if v.min() < floor - 1e-8 * (1.0 + abs(floor)) or v.max() > 1e-10:
        raise RuntimeError("policy value escaped the feasible reward range")
    return ValueFunction(mdp.space, v)


def continuation_value(mdp: RegulationMdp, vfun: ValueFunction, e_c: float) -> float:
    """Expected next-state value at state e_c conditional on no harm event."""
    i = mdp.space.index_of(e_c)
    if i == 0:
        return vfun[0]
    g = mdp.drift.prob(i)
    return g * vfun[i - 1] + (1.0 - g) * vfun[i]


def q_value(mdp: RegulationMdp, vfun: ValueFunction, e_c: float, e: float) -> float:
    """One-step lookahead value of playing effort e in state e_c.

    The effort need not sit on the action grid; harm and cost are continuous,
    which is what lets threshold refinement move between grid points.
    """
    if e < e_c - 1e-12:
        raise FeasibilityError(f"effort {e} falls below the required level {e_c}")
    h = float(mdp.harm.prob(e))  # also rejects negative effort
    d = continuation_value(mdp, vfun, e_c)
    return float(-mdp.cost.value(e) + mdp.gamma * (h * vfun.at_backlash + (1.0 - h) * d))


def evaluate_threshold_policy(mdp: RegulationMdp, tau: float) -> ValueFunction:
    """Value of the policy that plays max(tau, required effort) everywhere.

    Every state at or below tau plays tau itself and, because a harm event
    lands in the same place regardless of where it happened, all of those
    states must share a single value. That structure is asserted after the
    solve (tolerance 1e-9) as a standing consistency check.
    """
    if not 0.0 <= tau <= mdp.space.backlash_level + 1e-12:
        raise DomainError(
            f"threshold must lie in [0, {mdp.space.backlash_level}], got {tau}"
        )
    vf = evaluate_policy(mdp, Policy.threshold(mdp.space, tau))
    held = mdp.space.levels <= tau
    if np.any(held):
        spread = float(np.ptp(vf.values[held]))
        if spread > _SHARED_VALUE_TOL:
            raise RuntimeError(
                f"states held at the threshold diverged by {spread:.3g}; "
                "the transition structure is broken"
            )
    return vf


def _greedy(mdp: RegulationMdp, v: np.ndarray):
    """Best feasible grid effort per state against state values v, and its value."""
    acts = mdp.actions.efforts
    h = np.asarray(mdp.harm.prob(acts))
    c = np.asarray(mdp.cost.value(acts))
    g = mdp.drift.probs
    d = g * np.append(v[:1], v[:-1]) + (1.0 - g) * v  # the bottom state cannot drift
    q = -c[None, :] + mdp.gamma * (h[None, :] * v[-1] + (1.0 - h)[None, :] * d[:, None])
    q[acts[None, :] < mdp.space.levels[:, None] - 1e-12] = -np.inf  # below the requirement
    best = np.argmax(q, axis=1)  # the first maximizer: ties go to the lowest effort
    return acts[best], q[np.arange(v.size), best]


def value_iteration(mdp: RegulationMdp):
    """Brute-force optimal policy over the full action grid, by policy iteration.

    From exact compliance, evaluates the policy exactly and switches every
    state whose greedy gain exceeds 1e-9, until none does; returns the greedy
    policy at the final values (ties go to the lowest effort) with its exact
    value function. It assumes no threshold shape, so it can check the solver.
    """
    policy = Policy.comply(mdp.space)
    for _ in range(_IMPROVEMENT_STEPS):
        vf = evaluate_policy(mdp, policy)
        efforts, best = _greedy(mdp, vf.values)
        improves = best - vf.values > _IMPROVEMENT_TOL
        if not improves.any():
            greedy = Policy(mdp.space, efforts)
            return greedy, evaluate_policy(mdp, greedy)
        policy = Policy(mdp.space, np.where(improves, efforts, policy.efforts))
    raise RuntimeError(f"policy iteration still improving after {_IMPROVEMENT_STEPS} steps")


def policy_improvement_check(mdp: RegulationMdp, policy: Policy):
    """States where some feasible action beats the policy's own value.

    Returns (state level, best improving effort, gain) for every state with a
    one-step improvement above 1e-9, the gain policy iteration acts on. An
    empty list certifies the policy is unimprovable at that tolerance.
    """
    vf = evaluate_policy(mdp, policy)
    efforts, best = _greedy(mdp, vf.values)
    gains = best - vf.values
    return [(float(lv), float(e), float(gain))
            for lv, e, gain in zip(mdp.space.levels, efforts, gains) if gain > _IMPROVEMENT_TOL]
