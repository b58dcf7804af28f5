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

_IMPROVEMENT_TOL = 1e-9  # a smaller one-step gain is rounding, not an improvement
_IMPROVEMENT_STEPS = 100  # policy iteration's guard; it settles in a handful


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


def _residual_bound(mdp: RegulationMdp, scale: float) -> float:
    """Largest Bellman residual a dense solve may leave: (3n + 4) ulps of scale.

    scale bounds max|v|, so u * max|v| is at most one ulp of it (u the unit
    roundoff). An LU solve's backward error leaves a residual of about
    n * u * ||I - gamma P|| * max|v|, and the row sums give ||I - gamma P|| <= 2:
    2n ulps. Recomputing r + gamma P v to measure it adds n ulps for the
    n-term products and a few for the sums: n + 4.
    """
    return (3 * mdp.space.n_states + 4) * float(np.spacing(scale))


def evaluate_policy(mdp: RegulationMdp, policy: Policy) -> ValueFunction:
    """Exact discounted value of a stationary policy.

    Solves (I - gamma * P) v = r and refuses to return anything whose Bellman
    residual in any state exceeds (3n + 4) ulps of the value scale
    cost(e_max) / (1 - gamma), the rounding a dense solve may leave.
    """
    _require_same_space(mdp, policy.space)
    r = -np.asarray(mdp.cost.value(policy.efforts))
    p = mdp.transition_matrix(policy.efforts)
    n = mdp.space.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p, r)
    floor = -float(mdp.cost.value(mdp.actions.e_max))
    if mdp.gamma > 0:
        floor /= 1.0 - mdp.gamma
    residual = float(np.max(np.abs(v - (r + mdp.gamma * (p @ v)))))
    if residual > _residual_bound(mdp, abs(floor)):
        raise RuntimeError(f"policy evaluation left a Bellman residual of {residual:.3g}")
    if v.min() < floor - 1e-8 * (1.0 + abs(floor)) or v.max() > 1e-10:
        raise RuntimeError("policy value escaped the feasible reward range")
    return ValueFunction(mdp.space, v)


def _lookahead(mdp: RegulationMdp, v: np.ndarray, i, e):
    """One-step lookahead value q from state index i playing effort e, against values v.

    q = -c(e) + gamma (h(e) v_B + (1 - h(e)) d), where d = g v[i-1] + (1 - g) v[i]
    is the expected next value when no harm occurs; broadcasts over i and e. At i = 0,
    v[i-1] wraps to v[-1], but DriftModel pins g[0] = 0, so d is exactly v[0].
    """
    g = mdp.drift.probs[i]
    d = g * v[i - 1] + (1.0 - g) * v[i]
    h = mdp.harm.prob(e)  # also rejects negative effort
    return -mdp.cost.value(e) + mdp.gamma * (h * v[-1] + (1.0 - h) * d)


def q_value(mdp: RegulationMdp, vfun: ValueFunction, e_c: float, e: float) -> float:
    """One-step lookahead value of playing effort e in state e_c.

    The effort need not sit on the action grid; harm and cost are continuous,
    which is what lets threshold refinement move between grid points.
    """
    if e < e_c - 1e-12:
        raise FeasibilityError(f"effort {e} falls below the required level {e_c}")
    return float(_lookahead(mdp, vfun.values, mdp.space.index_of(e_c), e))


def evaluate_threshold_policy(mdp: RegulationMdp, tau: float) -> ValueFunction:
    """Value of the policy that plays max(tau, required effort) everywhere.

    Every state at or below tau plays tau itself and, because a harm event
    lands in the same place regardless of where it happened, all of those
    states must share a single value. That structure is asserted after the
    solve as a standing consistency check, to the spread that rounding allows.
    """
    if not 0.0 <= tau <= mdp.space.backlash_level + 1e-12:
        raise DomainError(
            f"threshold must lie in [0, {mdp.space.backlash_level}], got {tau}"
        )
    vf = evaluate_policy(mdp, Policy.threshold(mdp.space, tau))
    held = mdp.space.levels <= tau
    if np.any(held):
        spread = float(np.ptp(vf.values[held]))
        # the held rows give x_i = v_i - v_0 the recursion
        # (1 - gamma (1 - h)(1 - g)) x_i = gamma (1 - h) g x_{i-1} + rho_i - rho_0,
        # so residuals rho within R keep the spread within 2R / (1 - gamma);
        # R is taken in ulps of max|v|, at most |floor| and cheaper to get
        scale = float(np.max(np.abs(vf.values)))
        if spread > 2.0 * _residual_bound(mdp, scale) / (1.0 - mdp.gamma):
            raise RuntimeError(
                f"states held at the threshold diverged by {spread:.3g}; "
                "the transition structure is broken"
            )
    return vf


def _greedy(mdp: RegulationMdp, v: np.ndarray):
    """Best feasible grid effort per state against state values v, and its value."""
    acts = mdp.actions.efforts
    q = _lookahead(mdp, v, np.arange(v.size)[:, None], acts)
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
