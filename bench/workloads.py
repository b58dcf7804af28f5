"""The workloads: seeded inputs, one operation each, and its check.

A workload builds a pool of inputs from the seed in `setup`, runs one
operation per input in `run_op` (the only timed code), and judges an output
in `check`, which returns None when the output is right and a message when
it is wrong. `check(..., tamper=True)` judges against a deliberately wrong
expectation; the self-test uses it to prove that wrong answers are counted.

Inputs are drawn by the benchmark itself, from the distributions the
package's verification suites use, so a change to those suites does not
change what is measured. Draws that set an op's cost (the backlash level
that bounds the threshold scan, the discount factor that sets the Monte
Carlo horizon) are stratified, so every seed gets the same spread of sizes
and the medians hold still from seed to seed.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

import regmdp
from regmdp import DriftModel, StateSpace, build_action_grid

import oracle

ACTION_STEP = 1e-3
REFINE_TOL = 1e-6
Z_95 = 1.959963984540054
MC_SIGMAS = 5.0


def _stratified(rng, count, lo, hi):
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return lo + (hi - lo) * u


def _levels(rng, n, top, min_gap=1e-3):
    """0..top, either uniform or random with every gap above min_gap.

    verification.random_mdp draws random levels by rejection until all gaps
    exceed min_gap, which almost never ends at 101 states. Uniform spacings
    conditioned on every gap exceeding min_gap are min_gap plus uniform
    spacings of the remaining length, so this draws the same distribution
    directly.
    """
    if rng.random() < 0.5:
        return np.linspace(0.0, top, n)
    gaps = min_gap + (top - (n - 1) * min_gap) * rng.dirichlet(np.ones(n - 1))
    levels = np.concatenate([[0.0], np.cumsum(gaps)])
    levels[-1] = top
    return levels


def _harm(rng):
    h_min = rng.uniform(0.02, 0.3)
    return regmdp.HarmModel(h_min, rng.uniform(h_min + 0.2, 1.0), rng.uniform(0.5, 5.0))


def _cost(rng):
    return regmdp.CostModel(rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.5))


def _scenario(rng, n, top, gamma):
    """A RegulationMdp drawn as verification.random_mdp draws one, at e_max 1."""
    levels = _levels(rng, n, top)
    drift = rng.uniform(0.05, 0.8, size=n)
    drift[0] = 0.0
    return regmdp.RegulationMdp(
        StateSpace(levels), build_action_grid(1.0, ACTION_STEP, levels),
        _harm(rng), _cost(rng), DriftModel(drift), float(gamma),
    )


class Workload:
    name = ""
    min_ops = 100  # leaves ten samples beyond p90

    def __init__(self, seed, smoke=False):
        self.seed = seed % 2**64  # SeedSequence takes non-negative entropy only
        self.smoke = smoke
        if smoke:
            self.min_ops = 1

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])


# ---------------------------------------------------------------------------
# solve-sweep
# ---------------------------------------------------------------------------


class SolveSweep(Workload):
    """What `regmdp solve` does: the stable threshold, then its values."""

    name = "solve-sweep"

    def setup(self):
        rng = self.rng(1)
        small, large = (6, 2) if self.smoke else (75, 25)
        sizes = {11: small, 101: large}
        tops = {n: list(_stratified(rng, count, 0.6, 1.0)) for n, count in sizes.items()}
        # one 101-state op in every four keeps the mix fixed along the pool
        order = [101 if i % 4 == 3 else 11 for i in range(small + large)]
        self.pool = [_scenario(rng, n, tops[n].pop(), rng.uniform(0.5, 0.99)) for n in order]
        self.run_op(_scenario(self.rng(2), 101, 0.8, 0.9))

    def run_op(self, mdp):
        stable = regmdp.optimal_threshold(mdp, refine_tol=REFINE_TOL)
        vf = regmdp.evaluate_threshold_policy(mdp, stable)
        return stable, vf.values

    def check(self, mdp, out, tamper=False):
        stable, values = out
        if not 0.0 <= stable <= mdp.space.backlash_level + 1e-12:
            return f"stable effort {stable!r} outside [0, backlash level]"
        exact = oracle.threshold_values(mdp, stable)
        err = float(np.max(np.abs(values - exact)))
        if err > 1e-9 * (1.0 + float(np.max(np.abs(exact)))):
            return f"values off the dense solve by {err:.3g}"
        expected = np.maximum(stable + (10 * ACTION_STEP if tamper else 0.0), mdp.space.levels)
        greedy = oracle.greedy_efforts(mdp, exact)
        miss = np.abs(greedy - expected)
        if np.any(miss > ACTION_STEP + 1e-9):
            j = int(np.argmax(miss))
            return (f"state {mdp.space.levels[j]:.6g}: greedy effort {greedy[j]:.6g} vs "
                    f"max(stable, level) {expected[j]:.6g} (stable {stable:.9g})")
        return None


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------


MC_BIAS = 1e-6  # estimate_value's default truncation-bias target
MC_COST_REF = 0.78  # mean of cost(1) = a + b over the cost draws


def _horizon(gamma, c_max):
    """Shortest horizon meeting MC_BIAS, as simulate.minimal_horizon computes it."""
    return math.ceil(math.log(MC_BIAS * (1.0 - gamma) / c_max) / math.log(gamma))


def _gamma_for_horizon(horizon, c_max):
    """Smallest discount whose horizon reaches `horizon`; the horizon grows with gamma."""
    lo, hi = 0.01, 0.999
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _horizon(mid, c_max) < horizon:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class McInput:
    mdp: object
    policy: object
    exact: float


class MonteCarlo(Workload):
    """One 1e5-episode `estimate_value` from the backlash state per op.

    Op time is proportional to the horizon. The pool's horizons are fixed:
    those of discounts at the midpoints of 15 equal slices of (0.5, 0.9) for
    a typical cost ceiling; each scenario's discount is then set so that its
    own horizon equals its target, which keeps the cost spread the same for
    every seed. With 15 horizons the median and p90 op fall in the middle of
    one horizon's latencies (the 8th and the 14th), not on the edge between
    two, where the count of ops that ended on each side would move them.
    """

    name = "monte-carlo"
    episodes = 100_000

    def setup(self):
        rng = self.rng(1)
        count = 5 if self.smoke else 15
        if self.smoke:
            self.episodes = 5_000
        targets = [_horizon(0.5 + 0.4 * (k + 0.5) / count, MC_COST_REF) for k in range(count)]
        self.pool = []
        for k in rng.permutation(count):
            mdp = _scenario(rng, int(rng.integers(5, 16)), rng.uniform(0.6, 1.0), 0.5)
            c_max = float(mdp.cost.value(mdp.actions.e_max))
            mdp = dataclasses.replace(mdp, gamma=_gamma_for_horizon(targets[k], c_max))
            stable = regmdp.optimal_threshold(mdp, refine_tol=REFINE_TOL)
            policy = regmdp.Policy.threshold(mdp.space, stable)
            self.pool.append(McInput(mdp, policy, regmdp.evaluate_policy(mdp, policy).at_backlash))
        self._seeds = self.rng(2)
        first = self.pool[0]
        regmdp.estimate_value(first.mdp, first.policy, n_episodes=self.episodes, seed=0)

    def run_op(self, item):
        seed = int(self._seeds.integers(2**31))
        return seed, regmdp.estimate_value(item.mdp, item.policy, n_episodes=self.episodes, seed=seed)

    def check(self, item, out, tamper=False):
        seed, est = out
        exact = item.exact + (1.0 if tamper else 0.0)
        se = est.half_width_95 / Z_95
        if abs(est.mean - exact) > MC_SIGMAS * se + est.truncation_bound:
            return (f"seed {seed}: estimate {est.mean:.6g} vs exact {exact:.6g}, "
                    f"more than {MC_SIGMAS:g} standard errors ({se:.3g}) apart")
        return None


WORKLOADS = {cls.name: cls for cls in (SolveSweep, MonteCarlo)}
