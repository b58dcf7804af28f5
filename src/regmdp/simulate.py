"""Seeded Monte Carlo rollouts of the required-effort process.

Randomness comes from counter-based Philox generators keyed by explicit seed
material, so single trajectories replay byte-identically and batched estimates
aggregate the same way regardless of scheduling.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HorizonTooShortError
from .mdp import Policy, RegulationMdp

_Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_BATCH = 8192


class TrajectoryStep(NamedTuple):
    state: float
    action: float
    harm: bool
    reward: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One rollout: per-step records plus the realized discounted return."""

    steps: tuple
    seed: int
    discounted_return: float

    def records(self, episode: int = 0):
        """Rows ready for CSV export, one per step."""
        return [
            {
                "episode": episode,
                "t": t,
                "state": s.state,
                "action": s.action,
                "harm": s.harm,
                "reward": s.reward,
            }
            for t, s in enumerate(self.steps)
        ]


def _episode_rng(seed: int, stream: tuple = ()) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def sample_trajectory(
    mdp: RegulationMdp,
    policy: Policy,
    seed: int,
    horizon: int,
    start_level: float | None = None,
) -> Trajectory:
    """Roll the process forward for `horizon` steps from one start state.

    The default start is the backlash level, the worst place to wake up in.
    Two calls with the same arguments replay the identical trajectory.
    """
    seed = _check_seed(seed)
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    s = mdp.space.backlash_index if start_level is None else mdp.space.index_of(start_level)
    rng = _episode_rng(seed)
    harm_by_state = np.asarray(mdp.harm.prob(policy.efforts))
    reward_by_state = -np.asarray(mdp.cost.value(policy.efforts))
    g = mdp.drift.probs
    steps = []
    total = 0.0
    disc = 1.0
    for _ in range(horizon):
        harmed = bool(rng.random() < harm_by_state[s])
        steps.append(
            TrajectoryStep(
                float(mdp.space.levels[s]),
                float(policy.efforts[s]),
                harmed,
                float(reward_by_state[s]),
            )
        )
        total += disc * reward_by_state[s]
        if harmed:
            s = mdp.space.backlash_index
        elif g[s] > 0.0 and rng.random() < g[s]:
            s -= 1
        disc *= mdp.gamma
    return Trajectory(tuple(steps), seed, float(total))


class ValueEstimate(NamedTuple):
    mean: float
    half_width_95: float
    truncation_bound: float
    horizon: int


def truncation_bound(mdp: RegulationMdp, horizon: int) -> float:
    """Upper bound on the return mass cut off by stopping at `horizon`."""
    if mdp.gamma == 0.0:
        return 0.0
    c_max = float(mdp.cost.value(mdp.actions.e_max))
    return mdp.gamma**horizon * c_max / (1.0 - mdp.gamma)


def minimal_horizon(mdp: RegulationMdp, max_bias: float) -> int:
    """Shortest horizon whose truncation bound meets max_bias."""
    if mdp.gamma == 0.0:
        return 1
    c_max = float(mdp.cost.value(mdp.actions.e_max))
    ratio = max_bias * (1.0 - mdp.gamma) / c_max
    if ratio >= 1.0:
        return 1
    return max(1, int(np.ceil(np.log(ratio) / np.log(mdp.gamma))))


def _batch_returns(
    mdp: RegulationMdp,
    policy: Policy,
    start_index: int,
    n: int,
    horizon: int,
    rng: np.random.Generator,
) -> np.ndarray:
    top = mdp.space.backlash_index
    harm_by_state = np.asarray(mdp.harm.prob(policy.efforts))
    reward_by_state = -np.asarray(mdp.cost.value(policy.efforts))
    g = mdp.drift.probs
    down = np.maximum(np.arange(mdp.space.n_states) - 1, 0)
    state = np.full(n, start_index, dtype=np.intp)
    total = np.zeros(n)
    disc = 1.0
    for _ in range(horizon):
        total += disc * reward_by_state[state]
        harmed = rng.random(n) < harm_by_state[state]
        drifted = rng.random(n) < g[state]
        state = np.where(harmed, top, np.where(drifted, down[state], state))
        disc *= mdp.gamma
        if disc == 0.0:
            break
    return total


def estimate_value(
    mdp: RegulationMdp,
    policy: Policy,
    start_level: float | None = None,
    n_episodes: int = 100_000,
    horizon: int | None = None,
    seed: int = 0,
    max_truncation_bias: float = 1e-6,
) -> ValueEstimate:
    """Monte Carlo estimate of a policy's value from one start state.

    Episodes run in fixed-size batches, each on its own Philox stream derived
    from (seed, batch index), so the estimate does not depend on how batches
    are scheduled. A horizon of None picks the shortest one meeting the
    truncation-bias target; an explicit horizon that misses the target raises
    and names the minimal admissible one.
    """
    seed = _check_seed(seed)
    if n_episodes < 2:
        raise DomainError(f"need at least 2 episodes for a confidence width, got {n_episodes}")
    if horizon is None:
        horizon = minimal_horizon(mdp, max_truncation_bias)
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    bound = truncation_bound(mdp, horizon)
    if bound > max_truncation_bias:
        raise HorizonTooShortError(
            horizon, minimal_horizon(mdp, max_truncation_bias), bound, max_truncation_bias
        )
    start = mdp.space.backlash_index if start_level is None else mdp.space.index_of(start_level)
    chunks = []
    done = 0
    batch = 0
    while done < n_episodes:
        n = min(_BATCH, n_episodes - done)
        chunks.append(_batch_returns(mdp, policy, start, n, horizon, _episode_rng(seed, (batch,))))
        done += n
        batch += 1
    returns = np.concatenate(chunks)
    mean = float(returns.mean())
    sd = float(returns.std(ddof=1))
    half_width = _Z_95 * sd / np.sqrt(n_episodes)
    return ValueEstimate(mean, float(half_width), float(bound), horizon)
