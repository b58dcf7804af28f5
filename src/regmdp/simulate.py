"""Seeded Monte Carlo rollouts of the required-effort process.

Randomness comes from SFC64 generators keyed by explicit seed material, so
single trajectories replay byte-identically. SFC64 is NumPy's fastest bit
generator for 53-bit uniforms. Streams are told apart by SeedSequence spawn
keys and never advanced or jumped, so a counter-based generator such as
Philox would buy nothing here.

Two implementations of the same transition law live here on purpose.
`sample_trajectory` follows the model's definition step by step: one draw
decides harm and, without harm, a second draw decides drift. The batched
estimator `estimate_value` draws one uniform per episode and step and picks
the next state by inverse transform (harm, one state down, or stay), which
halves the generator work. Its 8192-episode batches each draw from their own
SFC64 stream. They are cut into one contiguous share per available CPU: the
calling thread runs the first share and a standard thread pool the rest.
One routine, `_share_returns`, runs a share, advancing up to eight of its
batches per array pass, so each NumPy call covers more work between
hand-offs of the interpreter lock; at 1e5 episodes on two CPUs each share is
one pass. Each batch writes its own slice of one returns array, so an
estimate is bit-identical whatever the thread count. A share's buffers take
26 bytes per episode up to 255 states and 27 up to 65,535, about 1.7 MB for
a full span, and an episode's last step adds its reward and draws nothing.
Both entry points refuse a policy on another state space, and a run is
refused before it starts when n_episodes * horizon exceeds 1e11
episode-steps.
"""

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, HorizonTooShortError
from .mdp import Policy, RegulationMdp
from .policy import _require_same_space

_Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_BATCH = 8192  # episodes per SFC64 stream, keyed by (seed, batch index)
_SPAN = 8  # consecutive batches that each array pass advances together
_MAX_EPISODE_STEPS = 10**11  # cap on n_episodes * horizon, minutes of rollouts


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


def _episode_rng(seed: int, stream: tuple = ()) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=stream)))


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

    Each step draws sequentially from the definition: one uniform for harm
    and, only without harm and with a positive drift probability, a second
    one for drift. This is deliberately not the one-uniform inverse transform
    of `estimate_value`, so the two serve as independent implementations of
    the transition law.
    """
    seed = _check_seed(seed)
    _require_same_space(mdp, policy.space)
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    s = mdp.space.backlash_index if start_level is None else mdp.space.index_of(start_level)
    rng = _episode_rng(seed)
    harm_by_state, reward_by_state, _ = _step_tables(mdp, policy)
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
    """Bound gamma**horizon * c(e_max) / (1 - gamma) on the return cut off at `horizon`.

    Where gamma**horizon and its product with c(e_max) are normal floats the
    bound is that expression as written. Where either is subnormal or 0, with
    gamma and c(e_max) positive, the expression has lost digits or all of
    them (at gamma 0.5 and c(e_max) 1e300 it reads 0 at horizon 1075, where
    the bound is 4.9e-24), and the bound is exp(horizon log gamma + log
    c(e_max) - log1p(-gamma)) instead. Against a 60-digit reference both
    keep a relative error below 1e-12 down to the smallest normal float. At
    gamma = 0 or c(e_max) = 0 the bound from horizon 1 on is exactly 0.
    """
    gamma, c_max = mdp.gamma, mdp.cost_ceiling
    scale = gamma**horizon
    cut = scale * c_max
    # 2**-1022 is the smallest normal float; below it a float keeps fewer digits
    if scale >= 2.0**-1022 and cut >= 2.0**-1022 or gamma == 0.0 or c_max == 0.0:
        return cut / (1.0 - gamma)
    return math.exp(horizon * math.log(gamma) + math.log(c_max) - math.log1p(-gamma))


def _check_bias_target(name: str, value: float) -> None:
    # "not >" so that NaN fails too; with gamma and c(e_max) positive no
    # horizon's bound is exactly 0
    if not value > 0.0:
        raise DomainError(f"{name} must be a positive truncation-bias target, got {value!r}")


def minimal_horizon(mdp: RegulationMdp, max_bias: float) -> int:
    """First horizon whose `truncation_bound` meets max_bias, which must be positive.

    From (short, long) = (0, 1) the gap doubles until the bound at `long`
    meets max_bias, then bisection closes it to 1, so the horizon returned
    meets max_bias and, unless it is 1, the one before it does not. The bound
    goes to 0 as the horizon grows, so every positive max_bias is met, and
    `estimate_value` accepts the horizon returned.
    """
    _check_bias_target("max_bias", max_bias)
    # `short` misses max_bias (0 is taken so), and the gap to `long` doubles
    # until `long` meets it
    short, long = 0, 1
    while truncation_bound(mdp, long) > max_bias:
        short, long = long, 3 * long - 2 * short  # long + twice the gap
    while long - short > 1:
        mid = (short + long) // 2
        short, long = (mid, long) if truncation_bound(mdp, mid) > max_bias else (short, mid)
    return long


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _step_tables(mdp: RegulationMdp, policy: Policy):
    """Per-state harm probability h, reward, and move probability h + (1 - h) * g."""
    harm_by_state = np.asarray(mdp.harm.prob(policy.efforts))
    reward_by_state = -np.asarray(mdp.cost.value(policy.efforts))
    return harm_by_state, reward_by_state, harm_by_state + (1.0 - harm_by_state) * mdp.drift.probs


def _share_returns(
    returns: np.ndarray,
    batches: range,
    seed: int,
    start_index: int,
    horizon: int,
    gamma: float,
    harm_by_state: np.ndarray,
    reward_by_state: np.ndarray,
    move_by_state: np.ndarray,
) -> None:
    """Write the discounted returns of one share's batches into their slice of returns.

    Batch k holds episodes k * _BATCH up to (k + 1) * _BATCH and draws from
    its own stream, keyed by (seed, k). The share's five buffers are
    allocated once, for at most one span of _SPAN batches, so its memory
    stays flat in the episode count: 26 bytes per episode up to 255 states,
    27 up to 65,535 and 29 beyond, about 1.7 MB for a full span. Besides the
    intp depth that indexes the tables, each episode's depth is kept in the
    narrowest unsigned dtype that holds n_states, which depth + 1 reaches at
    the bottom state just before the harm reset. One bool buffer holds first
    the move flags and then the no-harm flags of a step.

    Each array pass advances one span of consecutive batches. Each step
    fills their uniforms with one random() call per generator, in order, and
    every other operation then runs once over the whole span, so a wider
    call hands the interpreter lock over less often and draws the same
    numbers.

    The next state is sampled by inverse transform: harm (to the top state)
    if u < h[s], else one state down if u < m[s], else stay, where
    m = h + (1 - h) * g is the probability of harm or drift. A state is held
    as its depth below the top state, over reversed tables, so moving down
    adds 1 and the harm reset multiplies by (u >= h), with no mask. Those two
    updates run on the narrow unsigned copy of the depth, which is then
    copied once into the intp depth that the three gathers index with. Both
    flags are read off that unchanged intp depth, so one bool buffer serves
    the move and then the reset. Each step scales the small per-state reward
    table by the discount and then gathers from it, which gives the same
    products as scaling after the gather. The loop ends once the last step's
    reward is added, or once the discount underflows to 0, so no move is
    drawn that no reward reads. Every array operation writes into
    preallocated arrays, so a step allocates nothing.
    """
    share = returns[batches.start * _BATCH : batches.stop * _BATCH]
    size = min(_SPAN * _BATCH, share.size)
    buffers = (
        np.empty(size), np.empty(size), np.empty(size, dtype=bool),
        np.empty(size, dtype=np.intp), np.empty(size, dtype=np.min_scalar_type(harm_by_state.size)),
    )
    harm, reward, move = (t[::-1].copy() for t in (harm_by_state, reward_by_state, move_by_state))
    discounted = np.empty_like(reward)
    for first in range(0, len(batches), _SPAN):
        total = share[first * _BATCH : (first + _SPAN) * _BATCH]
        u, p, flag, depth, small_depth = (b[: total.size] for b in buffers)
        draws = [
            (_episode_rng(seed, (batch,)), u[k * _BATCH : (k + 1) * _BATCH])
            for k, batch in enumerate(batches[first : first + _SPAN])
        ]
        small_depth.fill(harm.size - 1 - start_index)
        np.copyto(depth, small_depth)
        total.fill(0.0)
        disc = 1.0
        for step in range(1, horizon + 1):
            np.multiply(reward, disc, out=discounted)
            # mode="clip" keeps take from buffering its output; indices are in range
            np.take(discounted, depth, out=p, mode="clip")
            total += p
            disc *= gamma
            if step == horizon or disc == 0.0:  # no later reward would read a move
                break
            for rng, out in draws:
                rng.random(out=out)
            np.take(move, depth, out=p, mode="clip")
            np.less(u, p, out=flag)
            small_depth += flag  # m[0] == h[0], so the bottom state moves only under harm
            np.take(harm, depth, out=p, mode="clip")
            np.greater_equal(u, p, out=flag)
            small_depth *= flag  # harm resets to the top state, depth 0
            np.copyto(depth, small_depth)


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

    Episodes run in fixed-size batches, each on its own SFC64 stream whose
    SeedSequence is keyed by (seed, batch index). The batches are cut into W
    contiguous shares, one per CPU in the process's affinity set and never
    more than there are batches: share w takes the batches
    [w * nb // W, (w + 1) * nb // W). The calling thread runs share 0, and a
    thread pool runs the others alongside it; at one CPU nothing goes to the
    pool and no thread starts. Each share runs in spans of up to _SPAN
    batches (`_share_returns`), so at 1e5 episodes on two CPUs each share is
    one span, and the estimate is bit-identical whatever the thread count.
    A failing share does not stop the others; its error is raised here once
    every share has ended, the caller's own first. The mean and standard
    deviation are taken of the returns scaled by 2**-e, with 2**e the power of
    two at or above the value scale c(e_max) / (1 - gamma) (e = 0 when the
    scale is below 1), and scaled back: that is exact, and the sum and the
    squares cannot overflow.

    The policy must live on the MDP's state space, and no effort may exceed
    the action ceiling e_max, since the truncation bound assumes costs of at
    most c(e_max). A horizon of None picks the shortest one meeting the
    truncation-bias target, which must be positive; an explicit horizon that
    misses the target raises and names the minimal admissible one. A run of
    more than 1e11 episode-steps (n_episodes * horizon) raises DomainError
    before any rollout starts: as gamma nears 1 the minimal horizon grows
    without bound, and 1e11 steps already take minutes.
    """
    seed = _check_seed(seed)
    if n_episodes < 2:
        raise DomainError(f"need at least 2 episodes for a confidence width, got {n_episodes}")
    _require_same_space(mdp, policy.space)
    if policy.efforts.max() > mdp.actions.e_max + 1e-12:
        raise DomainError(
            f"policy effort {policy.efforts.max()!r} exceeds the action ceiling "
            f"{mdp.actions.e_max!r}, past which the truncation bound does not hold"
        )
    _check_bias_target("max_truncation_bias", max_truncation_bias)
    if horizon is None:
        horizon = minimal_horizon(mdp, max_truncation_bias)
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    bound = truncation_bound(mdp, horizon)
    if bound > max_truncation_bias:
        raise HorizonTooShortError(
            horizon, minimal_horizon(mdp, max_truncation_bias), bound, max_truncation_bias
        )
    if n_episodes * horizon > _MAX_EPISODE_STEPS:
        raise DomainError(
            f"n_episodes ({n_episodes}) * horizon ({horizon}) at gamma {mdp.gamma!r} is "
            f"{n_episodes * horizon:.3g} episode-steps, more than the cap of "
            f"{_MAX_EPISODE_STEPS:.0e}; use fewer episodes or a smaller gamma"
        )
    start = mdp.space.backlash_index if start_level is None else mdp.space.index_of(start_level)
    n_batches = -(-n_episodes // _BATCH)
    workers = min(_available_cpus(), n_batches)
    shares = [range(w * n_batches // workers, (w + 1) * n_batches // workers)
              for w in range(workers)]
    args = (seed, start, horizon, mdp.gamma, *_step_tables(mdp, policy))
    returns = np.empty(n_episodes)
    # imported here, not at the top: concurrent.futures loads logging, which
    # would add about 0.7 MB and a few ms to every `import regmdp`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(_share_returns, returns, share, *args) for share in shares[1:]]
        _share_returns(returns, shares[0], *args)
        for helper in helpers:
            helper.result()
    # every return lies in [-2**exponent, 0]; a scale below 1 cannot overflow
    # and is left as it is, since 2**-exponent would not be a float
    exponent = max(0, math.frexp(mdp.cost_ceiling / (1.0 - mdp.gamma))[1])
    returns *= math.ldexp(1.0, -exponent)
    mean = math.ldexp(float(returns.mean()), exponent)
    sd = math.ldexp(float(returns.std(ddof=1)), exponent)
    half_width = _Z_95 * sd / np.sqrt(n_episodes)
    return ValueEstimate(mean, float(half_width), float(bound), horizon)


def agreement_z(estimate: ValueEstimate, exact: float) -> float:
    """Signed standard errors by which an estimate misses the exact value.

    Only the error beyond the truncation bound and (horizon + 4) ulps of the
    exact value counts: a sum of `horizon` rounded rewards may be off by
    horizon ulps, and the mean and the exact solve by a few more. The sign is
    that of estimate - exact. With a zero standard error any excess reads
    +-inf, and no excess reads 0; a NaN estimate or exact value reads NaN,
    which fails every |z| gate. Under a correct sampler z is about standard
    normal, so |z| > 1.96 in one run in twenty; a check that must not fail on
    a correct stream asks for |z| <= 4.
    """
    error = abs(estimate.mean - exact)
    excess = error - estimate.truncation_bound - (estimate.horizon + 4) * np.spacing(abs(exact))
    if excess <= 0.0:  # False for a NaN excess, which stays NaN
        return 0.0
    se = estimate.half_width_95 / _Z_95
    # excess * inf: +inf for any excess, NaN for a NaN one
    return float(np.copysign(excess / se if se > 0 else excess * np.inf, estimate.mean - exact))
