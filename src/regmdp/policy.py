"""Exact policy evaluation, action values, and brute-force optimization.

Threshold policies, the ones the solver scans, are evaluated in O(n) by a
forward pass over the chain's structure (`ThresholdChain`). The pass's
threshold-independent tables are built once per solve, and a solve's scan
calls the model over arrays of candidate thresholds, so a candidate costs
O(n) Python arithmetic; `evaluate_threshold_policy` builds the tables for one
threshold. Any other policy
is evaluated by solving the linear fixed point v = r + gamma P v densely
(`evaluate_policy`), which also serves as the structured path's check in
`verification`. Either way a value function is returned only once its
Bellman residual is within rounding. Policy iteration over the full action
grid is retained purely as an independent optimality oracle for cross-checks;
nothing else depends on it.

All functions are pure functions of immutable inputs, so sweeps over policies
or thresholds may run concurrently without coordination.
"""

from bisect import bisect_right
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
    """Largest Bellman residual an evaluation may leave: (3n + 4) ulps of scale.

    scale bounds max|v|, so u * max|v| is at most one ulp of it (u the unit
    roundoff). An LU solve's backward error leaves a residual of about
    n * u * ||I - gamma P|| * max|v|, and the row sums give ||I - gamma P|| <= 2:
    2n ulps. Recomputing r + gamma P v to measure it adds n ulps for the
    n-term products and a few for the sums: n + 4.
    """
    return (3 * mdp.space.n_states + 4) * float(np.spacing(scale))


def _value_limits(mdp: RegulationMdp):
    """(lowest value a policy may reach, largest Bellman residual an evaluation may leave).

    The value floor is -cost(e_max) / (1 - gamma), exact at gamma = 0, less a
    relative 1e-8; the residual bound is (3n + 4) ulps of that value scale.
    Values must also stay at or below 0, give or take 1e-10.
    """
    floor = -float(mdp.cost.value(mdp.actions.e_max)) / (1.0 - mdp.gamma)
    return floor - 1e-8 * (1.0 + abs(floor)), _residual_bound(mdp, abs(floor))


def _check(residual: float, v_min: float, v_max: float, limits) -> None:
    """Refuse values whose Bellman residual or range breaks `_value_limits`."""
    low, bound = limits
    if residual > bound:
        raise RuntimeError(f"policy evaluation left a Bellman residual of {residual:.3g}")
    if v_min < low or v_max > 1e-10:
        raise RuntimeError("policy value escaped the feasible reward range")


def evaluate_policy(mdp: RegulationMdp, policy: Policy) -> ValueFunction:
    """Exact discounted value of a stationary policy, by a dense solve.

    Solves (I - gamma * P) v = r and refuses to return anything whose Bellman
    residual |v - (r + gamma P v)| in any state exceeds (3n + 4) ulps of the
    value scale cost(e_max) / (1 - gamma), the rounding a dense solve may
    leave, or whose values leave [-scale, 0].
    """
    _require_same_space(mdp, policy.space)
    r = -np.asarray(mdp.cost.value(policy.efforts))
    p = mdp.transition_matrix(policy.efforts)
    n = mdp.space.n_states
    v = np.linalg.solve(np.eye(n) - mdp.gamma * p, r)
    residual = float(np.abs(v - (r + mdp.gamma * (p @ v))).max())
    _check(residual, v.min(), v.max(), _value_limits(mdp))
    return ValueFunction(mdp.space, v)


def _lookahead(mdp: RegulationMdp, v: np.ndarray, i, e):
    """One-step lookahead value r + gamma P v from state index i playing effort e.

    That is -c(e) + gamma (h v_B + (1 - h) d), with h = h(e) and
    d = g v[i-1] + (1 - g) v[i] the expected next value when no harm occurs;
    broadcasts over i and e. At i = 0, v[i-1] wraps to v[-1], but DriftModel
    pins g[0] = 0, so d is exactly v[0].
    """
    h = mdp.harm.prob(e)  # also rejects negative effort
    g = mdp.drift.probs[i]
    d = g * v[i - 1] + (1.0 - g) * v[i]
    return -mdp.cost.value(e) + mdp.gamma * (h * v[-1] + (1.0 - h) * d)


def q_value(mdp: RegulationMdp, vfun: ValueFunction, e_c: float, e: float) -> float:
    """One-step lookahead value of playing effort e in state e_c.

    The effort need not sit on the action grid; harm and cost are continuous,
    which is what lets threshold refinement move between grid points.
    """
    if e < e_c - 1e-12:
        raise FeasibilityError(f"effort {e} falls below the required level {e_c}")
    return float(_lookahead(mdp, vfun.values, mdp.space.index_of(e_c), e))


class ThresholdChain:
    """Threshold-policy evaluation on one MDP, with its tau-independent work done once.

    With D_i = 1 - gamma (1 - h_i)(1 - g_i), each state i that complies has
    v_i = alpha_i + beta_i V_B + delta_i v_{i-1}, where alpha_i = -c_i / D_i,
    beta_i = gamma h_i / D_i and delta_i = gamma (1 - h_i) g_i / D_i. A state
    above the threshold plays its own level, so its coefficients, with
    sigma_i = (1 - gamma) / D_i, h_i, c_i and g_i, are the same for every
    threshold; so are the value floor and the residual bound. They are built
    here once, by vectorised expressions, as Python float lists. `values`
    evaluates one threshold with two scalar model calls; `gaps` evaluates an
    array of them with one `searchsorted` and one array call each for h and
    c. Either way a threshold then costs one O(n) Python pass, `_pass`, and
    no NumPy call over the states: `optimal_threshold` builds one chain per
    solve and scans some 600 to 1,000 thresholds on it.
    """

    __slots__ = ("mdp", "_levels", "_alpha", "_beta", "_delta", "_sigma", "_h", "_c", "_g",
                 "_limits")

    def __init__(self, mdp: RegulationMdp):
        gamma, levels, g = mdp.gamma, mdp.space.levels, mdp.drift.probs
        h = mdp.harm.prob(levels)
        c = mdp.cost.value(levels)
        stay = gamma * (1.0 - h)
        d = 1.0 - stay * (1.0 - g)
        self.mdp = mdp
        self._levels = levels.tolist()
        self._alpha, self._beta = (-c / d).tolist(), (gamma * h / d).tolist()
        self._delta, self._sigma = (stay * g / d).tolist(), ((1.0 - gamma) / d).tolist()
        self._h, self._c, self._g = h.tolist(), c.tolist(), g.tolist()
        self._limits = _value_limits(mdp)

    def values(self, tau: float) -> list:
        """Values of the policy that plays max(tau, required effort) everywhere, in O(n).

        The states at or below tau all play tau and a harm event lands in the
        backlash state wherever it happens, so they share one value
        u + w V_B: u and w are state 0's alpha and beta at effort tau, since
        g_0 = 0. One forward pass carries v_i = a_i + b_i V_B, and s_i = 1 - b_i
        as the sum of positive terms sigma_i + delta_i s_{i-1}, so V_B = a / s
        at the top state does not cancel as gamma nears 1. The values must pass
        `evaluate_policy`'s Bellman-residual bound, with r + gamma P v
        recomputed in every state from h, c and g, and its range check. The
        held states share v, h and c, and each drifts to a state of the same
        value, so their r + gamma P v is one number, computed once.
        """
        mdp = self.mdp
        if not 0.0 <= tau <= mdp.space.backlash_level + 1e-12:
            self._refuse(tau)
        k = bisect_right(self._levels, tau)  # the states held at tau
        return self._pass(k, float(mdp.harm.prob(tau)), float(mdp.cost.value(tau)))

    def gaps(self, taus: np.ndarray) -> np.ndarray:
        """Held value minus backlash value at each threshold in taus.

        One `searchsorted` counts every threshold's held states, and one array
        call each gives h and c, so a threshold costs only its `_pass`, with
        `values`' residual and range checks. One threshold outside the space
        refuses the whole array.
        """
        mdp = self.mdp
        taus = np.asarray(taus, dtype=float)
        top = mdp.space.backlash_level + 1e-12
        if taus.size and not (taus.min() >= 0.0 and taus.max() <= top):
            self._refuse(taus[~((taus >= 0.0) & (taus <= top))][0])
        ks = np.searchsorted(mdp.space.levels, taus, side="right").tolist()
        hs, cs = mdp.harm.prob(taus).tolist(), mdp.cost.value(taus).tolist()
        return np.array([v[0] - v[-1] for v in map(self._pass, ks, hs, cs)])

    def _refuse(self, tau):
        raise DomainError(
            f"threshold must lie in [0, {self.mdp.space.backlash_level}], got {tau}"
        )

    def _pass(self, k: int, h0: float, c0: float) -> list:
        """`values`' forward pass and checks, given k = the count of levels <= tau.

        h0 and c0 are h(tau) and c(tau). At k = 0, tau lies below every
        level, so state 0 complies with its own level and they are unused.
        """
        gamma, alpha, beta, sigma = self.mdp.gamma, self._alpha, self._beta, self._sigma
        if k:
            d = 1.0 - gamma * (1.0 - h0)
            a, b, s = -c0 / d, gamma * h0 / d, (1.0 - gamma) / d
        else:  # tau lies below every level: state 0 complies with its own
            k, h0, c0 = 1, self._h[0], self._c[0]
            a, b, s = alpha[0], beta[0], sigma[0]
        a0, b0 = a, b
        coef_a, coef_b = [], []
        for al, be, de, si in zip(alpha[k:], beta[k:], self._delta[k:], sigma[k:]):
            a = al + de * a
            b = be + de * b
            s = si + de * s
            coef_a.append(a)
            coef_b.append(b)
        top = a / s
        held = a0 + b0 * top + 0.0  # + 0.0 turns -0.0 into 0.0
        above = [x + y * top + 0.0 for x, y in zip(coef_a, coef_b)]
        vb = above[-1] if above else held
        residual = abs(held - (gamma * (h0 * vb + (1.0 - h0) * held) - c0))
        prev = held
        for vi, hi, ci, gi in zip(above, self._h[k:], self._c[k:], self._g[k:]):
            r = abs(vi - (gamma * (hi * vb + (1.0 - hi) * (gi * prev + (1.0 - gi) * vi)) - ci))
            if r > residual:
                residual = r
            prev = vi
        v = [held] * k + above
        _check(residual, min(v), max(v), self._limits)
        return v


def evaluate_threshold_policy(mdp: RegulationMdp, tau: float) -> ValueFunction:
    """Value of the policy that plays max(tau, required effort) everywhere, in O(n).

    Builds the MDP's `ThresholdChain` and evaluates tau on it, so a caller
    that evaluates many thresholds on one MDP builds the chain once instead.
    The values pass `evaluate_policy`'s Bellman-residual bound and range
    check; `verification.states_below_threshold_share_value` compares them
    with the dense solve of the same policy.
    """
    return ValueFunction(mdp.space, ThresholdChain(mdp).values(tau))


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
