from bisect import bisect_right

import numpy as np
import pytest

from regmdp import (
    CostModel,
    DriftModel,
    HarmModel,
    RegulationMdp,
    WelfareModel,
    build_action_grid,
    build_state_space,
)

# the canonical scenario used across the suite: exponential harm decay from
# 0.9 to 0.1, quadratic cost 0.5 e^2 + 0.1 e, damage 2, gamma 0.9, eleven
# evenly spaced requirement levels up to a backlash level of 1.0


@pytest.fixture(scope="session")
def harm():
    return HarmModel(0.1, 0.9, 3.0)


@pytest.fixture(scope="session")
def cost():
    return CostModel(0.5, 0.1)


@pytest.fixture(scope="session")
def welfare(harm, cost):
    return WelfareModel(harm, cost, 2.0)


@pytest.fixture(scope="session")
def space():
    return build_state_space(0.0, 1.0, 11, 1.0)


@pytest.fixture(scope="session")
def actions(space):
    return build_action_grid(1.0, 1e-3, space.levels)


@pytest.fixture(scope="session")
def drift():
    return DriftModel.constant(0.3, 11)


@pytest.fixture(scope="session")
def mdp(space, actions, harm, cost, drift):
    return RegulationMdp(space, actions, harm, cost, drift, 0.9)


def forward_pass(mdp, k, h0, c0, num=float):
    """Values of the threshold chain by a forward pass: the reference for `ThresholdChain`.

    States 0 .. k-1 are held at harm h0 and cost c0 and share one value
    u + w V_B; at k = 0 state 0 complies with its own level and stands in for
    them. Each state above carries v_i = a_i + b_i V_B, and s_i = 1 - b_i as
    the sum of positive terms sigma_i + delta_i s_{i-1}, so V_B = a / s at the
    top state does not cancel as gamma nears 1. The inputs are the library's
    floats; num=Fraction carries them through in exact rational arithmetic.
    """
    h = [num(x) for x in mdp.harm.prob(mdp.space.levels).tolist()]
    c = [num(x) for x in mdp.cost.value(mdp.space.levels).tolist()]
    g = [num(x) for x in mdp.drift.probs.tolist()]
    gamma = num(mdp.gamma)
    if not k:
        k, h0, c0 = 1, h[0], c[0]
    h0, c0 = num(h0), num(c0)
    d = 1 - gamma * (1 - h0)
    u = a = -c0 / d
    w = b = gamma * h0 / d
    s = (1 - gamma) / d
    coef_a, coef_b = [], []
    for hi, ci, gi in zip(h[k:], c[k:], g[k:]):
        stay = gamma * (1 - hi)
        di = 1 - stay * (1 - gi)
        delta = stay * gi / di
        a = -ci / di + delta * a
        b = gamma * hi / di + delta * b
        s = (1 - gamma) / di + delta * s
        coef_a.append(a)
        coef_b.append(b)
    top = a / s
    return [u + w * top] * k + [x + y * top for x, y in zip(coef_a, coef_b)]


def forward_values(mdp, tau, num=float):
    """`forward_pass` for the policy that plays max(tau, required effort) everywhere."""
    k = bisect_right(mdp.space.levels.tolist(), tau)
    return forward_pass(mdp, k, float(mdp.harm.prob(tau)), float(mdp.cost.value(tau)), num)


def two_pass_residual(mdp, k, h0, c0, v):
    """Worst Bellman residual of threshold-chain values v, with V_B read back from v[-1].

    The reference for the residual `ThresholdChain` measures in its value
    pass: a second walk over the states, recomputing r + gamma P v in each
    from h, c and g. v[0] is the shared value of the held states 0 .. k-1,
    which play harm h0 and cost c0, and v[1:] those of states k .. n-1; at
    k = 0 state 0 complies with its own level and stands in for them.
    """
    h = mdp.harm.prob(mdp.space.levels).tolist()
    c = mdp.cost.value(mdp.space.levels).tolist()
    g = mdp.drift.probs.tolist()
    gamma = mdp.gamma
    if not k:
        k, h0, c0 = 1, h[0], c[0]
    held, vb = v[0], v[-1]
    residual = abs(held - (gamma * (h0 * vb + (1.0 - h0) * held) - c0))
    for prev, vi, hi, gi, ci in zip(v, v[1:], h[k:], g[k:], c[k:]):
        r = abs(vi - (gamma * (hi * vb + (1.0 - hi) * (gi * prev + (1.0 - gi) * vi)) - ci))
        residual = max(residual, r)
    return residual


class NanSlope:
    """A harm curve whose slope reads NaN on (lo, hi], duck-typed as the models allow."""

    def __init__(self, harm, lo, hi=np.inf):
        self.harm, self.lo, self.hi = harm, lo, hi

    def prob(self, e):
        return self.harm.prob(e)

    def derivative(self, e):
        x = np.asarray(e)
        out = np.where((x > self.lo) & (x <= self.hi), np.nan, self.harm.derivative(e))
        return float(out) if out.ndim == 0 else out
