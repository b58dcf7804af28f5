"""Exact policy evaluation, action values, and brute-force optimization.

Threshold policies, the ones the solver searches, are evaluated in O(n) over
the chain's structure (`ThresholdChain`), whose threshold-independent tables
are built once per solve. The chain is the one place a threshold's values and
its hold margin are computed (`ThresholdChain.values`, `margin` and the
search `last_hold`), for the solve, the backlash design and the final values
alike: a threshold takes its backlash value in O(1) from a backward pass in
those tables, then its values in one substitution pass, which must pass the
Bellman-residual and range checks. Any other policy is evaluated by solving
the linear fixed point v = r + gamma P v densely (`evaluate_policy`), which
also serves as the structured path's check in `verification`. Either way a
value function is returned only once its Bellman residual is within
rounding. Policy iteration over the full action grid is retained purely as
an independent optimality oracle for cross-checks; nothing else depends on
it.

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
_SCAN_SLICE = 4096  # thresholds per array call in `ThresholdChain.last_hold`


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
    floor = -mdp.cost_ceiling / (1.0 - mdp.gamma)
    return floor - 1e-8 * (1.0 + abs(floor)), _residual_bound(mdp, abs(floor))


def _check(residual: float, v_min: float, v_max: float, limits) -> None:
    """Refuse values whose Bellman residual or range breaks `_value_limits`, or is NaN."""
    low, bound = limits
    # every comparison with NaN is False, so each one is written so that NaN fails it
    if not residual <= bound:
        raise RuntimeError(f"policy evaluation left a Bellman residual of {residual:.3g}")
    if not (v_min >= low and v_max <= 1e-10):
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
    which is what lets threshold refinement move between grid points. The
    value function must live on the MDP's state space.
    """
    _require_same_space(mdp, vfun.space)
    if e < e_c - 1e-12:
        raise FeasibilityError(f"effort {e} falls below the required level {e_c}")
    return float(_lookahead(mdp, vfun.values, mdp.space.index_of(e_c), e))


class ThresholdChain:
    """Threshold-policy evaluation on one MDP, with its tau-independent work done once.

    With D_i = 1 - gamma (1 - h_i)(1 - g_i), each state i that complies has
    v_i = alpha_i + beta_i V_B + delta_i v_{i-1}, where alpha_i = -c_i / D_i,
    beta_i = gamma h_i / D_i and delta_i = gamma (1 - h_i) g_i / D_i. A state
    above the threshold plays its own level, so its coefficients, h_i, c_i and
    g_i are the same for every threshold; so are the value floor and the
    residual bound. They are built here once, by vectorised expressions, as
    Python floats in one list of (alpha, beta, delta, h, g, c) rows.

    So is a backward pass over them that gives the backlash value at every
    split k (states k .. n-1 comply) in O(1): from P_n = 0, R_n = 1, S_n = 0,
    P_{k-1} = P_k + R_k alpha_{k-1}, S_{k-1} = S_k + R_k sigma_{k-1} and
    R_{k-1} = R_k delta_{k-1}, with sigma_i = (1 - gamma) / D_i, so that
    V_B = (P_k + R_k u) / (S_k + R_k q) when the state below the split has
    value u + (1 - q) V_B. S_k, like q, is a sum of positive terms, so V_B
    does not cancel as gamma nears 1.

    `values`, `margin` and `last_hold` all run `_gap`: V_B from the
    backward pass, then one walk over the states that fills in the values
    from it and checks them. `values` returns those values and the margins
    the gap. No path makes a NumPy call over the states: `optimal_threshold`
    builds one chain per solve and searches its 600 to 1,000 candidates down
    from the backlash level, evaluating only those above the last one that
    holds and that one itself.
    """

    __slots__ = ("mdp", "_levels", "_rows", "_p", "_r", "_s", "_limits")

    def __init__(self, mdp: RegulationMdp):
        gamma, levels, g = mdp.gamma, mdp.space.levels, mdp.drift.probs
        h = mdp.harm.prob(levels)
        c = mdp.cost.value(levels)
        stay = gamma * (1.0 - h)
        d = 1.0 - stay * (1.0 - g)
        alpha, delta, sigma = -c / d, stay * g / d, (1.0 - gamma) / d
        # the backward pass; cumprod and cumsum run in order, as its recurrences do
        r = np.append(np.cumprod(delta[::-1])[::-1], 1.0)
        p = np.append(np.cumsum((r[1:] * alpha)[::-1])[::-1], 0.0)
        s = np.append(np.cumsum((r[1:] * sigma)[::-1])[::-1], 0.0)
        self.mdp = mdp
        self._levels = levels.tolist()
        # one row per state, so that a pass slices one list
        self._rows = np.column_stack([alpha, gamma * h / d, delta, h, g, c]).tolist()
        self._p, self._r, self._s = p.tolist(), r.tolist(), s.tolist()
        self._limits = _value_limits(mdp)

    def values(self, tau: float) -> list:
        """Values of the policy that plays max(tau, required effort) everywhere, in O(n).

        The states at or below tau all play tau and a harm event lands in the
        backlash state wherever it happens, so they share one value. The
        values are `_gap`'s, from the backward tables and one substitution
        pass, and have passed the Bellman-residual and range checks.
        """
        mdp = self.mdp
        _, v = self._gap(self._held(tau), float(mdp.harm.prob(tau)), float(mdp.cost.value(tau)))
        return [v[0]] * (len(self._levels) - len(v)) + v  # v[0] is every held state's

    def margin(self, tau: float) -> float:
        """The hold margin -gamma h'(tau) gap(tau) - c'(tau) at one threshold tau.

        Where it is >= 0, every state below tau prefers holding tau to any
        lower effort; the stable effort is the supremum of that region. It is
        gap + c'(tau) / (gamma h'(tau)) >= 0 multiplied through by
        -gamma h'(tau) >= 0, not divided by h'(tau), which underflows to 0 on
        steep harm curves. A NaN margin raises RuntimeError: read as < 0 it
        would pass for a threshold that does not hold.
        """
        mdp = self.mdp
        gap, _ = self._gap(self._held(tau), float(mdp.harm.prob(tau)), float(mdp.cost.value(tau)))
        m = -mdp.gamma * float(mdp.harm.derivative(tau)) * gap - float(mdp.cost.derivative(tau))
        if m != m:
            _nan_margin(tau)
        return m

    def last_hold(self, taus: np.ndarray) -> int:
        """Index of the last threshold in taus whose `margin` is >= 0, or -1 if none holds.

        The search runs down from the last threshold and stops at the first
        margin >= 0, so the thresholds below that one are never evaluated.
        It goes `_SCAN_SLICE` thresholds at a time from the top, so no list
        grows to the action grid's size. In a slice, one `searchsorted` gives
        the held counts and one array call each h, c, h' and c'; the
        thresholds below every level all evaluate exact compliance and share
        one `_gap`. Each margin is formed as (-gamma h') gap - c', the
        operations `margin` does, so it equals `margin`'s bit for bit, and a
        NaN one raises as there. One threshold outside the space refuses the
        whole array.
        """
        mdp = self.mdp
        taus = np.asarray(taus, dtype=float)
        top = mdp.space.backlash_level + 1e-12
        if taus.size and not (taus.min() >= 0.0 and taus.max() <= top):
            self._refuse(taus[~((taus >= 0.0) & (taus <= top))][0])
        below = None  # the gap every threshold below every level shares
        for stop in range(taus.size, 0, -_SCAN_SLICE):
            start = max(stop - _SCAN_SLICE, 0)
            e = taus[start:stop]
            ks = np.searchsorted(mdp.space.levels, e, side="right").tolist()
            hs, cs = mdp.harm.prob(e).tolist(), mdp.cost.value(e).tolist()
            slopes = (-mdp.gamma * mdp.harm.derivative(e)).tolist()
            dcs = mdp.cost.derivative(e).tolist()
            for j in range(e.size - 1, -1, -1):
                if ks[j]:
                    gap = self._gap(ks[j], hs[j], cs[j])[0]
                else:
                    if below is None:
                        below = self._gap(0, 0.0, 0.0)[0]
                    gap = below
                m = slopes[j] * gap - dcs[j]
                if m >= 0.0:
                    return start + j
                if m != m:
                    _nan_margin(e[j])
        return -1

    def _held(self, tau: float) -> int:
        """The count of levels <= tau, once tau is known to lie in the space."""
        if not 0.0 <= tau <= self.mdp.space.backlash_level + 1e-12:
            self._refuse(tau)
        return bisect_right(self._levels, tau)

    def _refuse(self, tau):
        raise DomainError(
            f"threshold must lie in [0, {self.mdp.space.backlash_level}], got {tau}"
        )

    def _gap(self, k: int, h0: float, c0: float):
        """(held value minus backlash value, values), given k = the count of levels <= tau.

        h0 and c0 are h(tau) and c(tau), and the held block's value is
        u + (1 - q) V_B. At k = 0, tau lies below every level, so state 0
        complies with its own level and stands in for the held block: k
        becomes 1 and h0, c0 state 0's (g_0 = 0, so u and q are then its
        alpha_0 and sigma_0). V_B comes from the backward pass in O(1); one
        substitution pass, v_i = alpha_i + beta_i V_B + delta_i v_{i-1}, then
        fills in the values. The same loop recomputes r + gamma P v in each
        state from h, c and g with that V_B and keeps the worst residual; the
        held states share v, h and c, and each drifts to a state of the same
        value, so their residual is one number. Each residual is
        gamma h_i-Lipschitz in V_B and h_i <= 1, so the worst one plus
        gamma |v[-1] - V_B| bounds the residual taken with V_B read back from
        the last value: a wrong V_B shows up as a residual, and `_check`
        refuses values past `_value_limits`. The gap is
        u - q V_B = (-c(tau) - (1 - gamma) V_B) / (1 - gamma (1 - h(tau))):
        the held value and V_B grow like 1 / (1 - gamma), so their difference
        is rounding noise as gamma nears 1. The held value is V_B + gap. The
        values are the held states' shared one, then those of states k .. n-1.
        """
        if not k:
            k, h0, c0 = 1, self._rows[0][3], self._rows[0][5]
        gamma = self.mdp.gamma
        d = 1.0 - gamma * (1.0 - h0)
        u, q = -c0 / d, (1.0 - gamma) / d
        rk = self._r[k]
        vb = (self._p[k] + rk * u) / (self._s[k] + rk * q)
        gap = u - q * vb
        prev = vb + gap
        v = [prev]
        residual = abs(prev - (gamma * (h0 * vb + (1.0 - h0) * prev) - c0))
        for al, be, de, hi, gi, ci in self._rows[k:]:
            vi = al + be * vb + de * prev
            r = abs(vi - (gamma * (hi * vb + (1.0 - hi) * (gi * prev + (1.0 - gi) * vi)) - ci))
            if r > residual:
                residual = r
            v.append(vi)
            prev = vi
        _check(residual + gamma * abs(prev - vb), min(v), max(v), self._limits)
        return gap, v


def _nan_margin(tau):
    raise RuntimeError(f"the hold margin at threshold {float(tau)!r} is NaN")


def evaluate_threshold_policy(mdp: RegulationMdp, tau: float) -> ValueFunction:
    """Value of the policy that plays max(tau, required effort) everywhere, in O(n).

    Builds the MDP's `ThresholdChain` and evaluates tau on it, so a caller
    that evaluates many thresholds on one MDP builds the chain once instead.
    The values come from the chain's backward tables and one substitution
    pass, the ones its hold margin uses, and pass `evaluate_policy`'s
    Bellman-residual bound and range check;
    `verification.states_below_threshold_share_value` compares them with the
    dense solve of the same policy.
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
