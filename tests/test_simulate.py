"""Seeded rollouts and Monte Carlo value estimation."""

import dataclasses
import itertools
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from regmdp import simulate
from regmdp import (
    CostModel,
    DomainError,
    DriftModel,
    FeasibilityError,
    HarmModel,
    HorizonTooShortError,
    Policy,
    RegulationMdp,
    StateSpace,
    ValueEstimate,
    agreement_z,
    build_action_grid,
    build_state_space,
    estimate_value,
    evaluate_policy,
    minimal_horizon,
    sample_trajectory,
    truncation_bound,
)


class TestSampleTrajectory:
    def test_replays_byte_identically(self, mdp):
        pol = Policy.threshold(mdp.space, 0.45)
        t1 = sample_trajectory(mdp, pol, seed=5, horizon=60)
        t2 = sample_trajectory(mdp, pol, seed=5, horizon=60)
        assert t1.steps == t2.steps
        assert t1.discounted_return == t2.discounted_return

    def test_different_seeds_differ(self, mdp):
        pol = Policy.threshold(mdp.space, 0.45)
        t1 = sample_trajectory(mdp, pol, seed=5, horizon=60)
        t2 = sample_trajectory(mdp, pol, seed=6, horizon=60)
        assert t1.steps != t2.steps

    def test_starts_at_the_backlash_level_by_default(self, mdp):
        pol = Policy.comply(mdp.space)
        traj = sample_trajectory(mdp, pol, seed=0, horizon=3)
        assert traj.steps[0].state == 1.0

    def test_harm_jumps_to_the_backlash_state(self, mdp):
        pol = Policy.comply(mdp.space)
        traj = sample_trajectory(mdp, pol, seed=3, horizon=200, start_level=0.0)
        for before, after in zip(traj.steps, traj.steps[1:]):
            if before.harm:
                assert after.state == mdp.space.backlash_level

    def test_reward_is_minus_cost_of_the_action(self, mdp, cost):
        pol = Policy.threshold(mdp.space, 0.45)
        traj = sample_trajectory(mdp, pol, seed=1, horizon=50)
        for step in traj.steps:
            assert step.reward == pytest.approx(-cost.value(step.action), rel=1e-15)

    def test_harm_frequency_matches_the_curve(self, mdp, harm):
        # pin the policy at the top effort so every step shares one harm rate
        pol = Policy.threshold(mdp.space, 1.0)
        draws = 0
        harms = 0
        for seed in range(200):
            traj = sample_trajectory(mdp, pol, seed=seed, horizon=500)
            draws += len(traj.steps)
            harms += sum(s.harm for s in traj.steps)
        p = harm.prob(1.0)
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(harms / draws - p) <= 4 * se

    def test_rejects_bad_arguments(self, mdp):
        pol = Policy.comply(mdp.space)
        with pytest.raises(DomainError):
            sample_trajectory(mdp, pol, seed=-1, horizon=10)
        with pytest.raises(DomainError):
            sample_trajectory(mdp, pol, seed=0, horizon=0)
        with pytest.raises(DomainError):
            sample_trajectory(mdp, pol, seed=0, horizon=10, start_level=0.123)
        with pytest.raises(DomainError):  # not a silent start at state 0
            sample_trajectory(mdp, pol, seed=0, horizon=10, start_level=np.nan)
        elsewhere = Policy.comply(StateSpace(np.linspace(0.2, 1.0, 11)))
        with pytest.raises(FeasibilityError, match="different state spaces"):
            sample_trajectory(mdp, elsewhere, seed=0, horizon=10)


class TestHorizons:
    def test_truncation_bound_formula(self, mdp, cost):
        assert truncation_bound(mdp, 50) == pytest.approx(
            0.9**50 * cost.value(1.0) / 0.1, rel=1e-12
        )

    def test_minimal_horizon_meets_the_target(self, mdp):
        h = minimal_horizon(mdp, 1e-6)
        assert h == 149
        assert truncation_bound(mdp, h) <= 1e-6
        assert truncation_bound(mdp, h - 1) > 1e-6

    @pytest.mark.parametrize("target", [1e-300, 1e-310, 5e-324])
    def test_a_tiny_bias_target_gets_a_finite_horizon(self, mdp, target):
        # at the two smaller targets, target * (1 - gamma) / c_max underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = minimal_horizon(mdp, target)
            assert truncation_bound(mdp, h) <= target

    def test_one_log_formula_gives_the_two_branch_horizon(self):
        # minimal_horizon reads only gamma and cost_ceiling. Seeded draws of
        # gamma up to 1 - 1e-9, c(e_max) in [1e-100, 1e100] and targets in
        # [1e-100, 1e6] reach both of the old formula's first two branches
        # (ratio >= 1, and log of the ratio); the grid reaches its third, the
        # underflowing ratio. Beyond gamma 1 - 1e-9 the horizons pass 1e9
        # steps and the two log formulas part by a step now and then.
        rng = np.random.default_rng(2024)
        draws = [(float(1.0 - 10 ** rng.uniform(-9, -0.001)), float(10 ** rng.uniform(-100, 100)),
                  float(10 ** rng.uniform(-100, 6))) for _ in range(20_000)]
        grid = list(itertools.product((0.5, 0.9, 0.999), (0.6, 1e10, 1e300),
                                      (1e-300, 1e-310, 5e-324)))
        ratios = [target * (1.0 - gamma) / c_max for gamma, c_max, target in draws + grid]
        assert min(ratios) < np.finfo(float).tiny < 1.0 < max(ratios)
        for gamma, c_max, target in draws + grid:
            mdp = types.SimpleNamespace(gamma=gamma, cost_ceiling=c_max)
            assert minimal_horizon(mdp, target) == two_branch_horizon(gamma, c_max, target)

    def test_the_horizon_meets_its_own_bound_on_every_edge(self, space, actions, harm, drift):
        # discounts at the edge between two horizons, where the logs' rounding
        # decides the ceiling: estimate_value must accept its own horizon,
        # which is at most one step longer than the shortest that meets the
        # bound. The two-branch formula fell one step short on some of these.
        rng = np.random.default_rng(7)
        for _ in range(300):
            c_max, target = float(10 ** rng.uniform(-3, 3)), float(10 ** rng.uniform(-9, -3))
            steps = int(rng.integers(2, 2000))
            lo, hi = 1e-6, 1.0 - 1e-12  # bisect for the smallest gamma needing `steps` steps
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                enough = mid ** (steps - 1) * c_max / (1.0 - mid) <= target
                lo, hi = (mid, hi) if enough else (lo, mid)
            cost = CostModel(0.5 * c_max, 0.5 * c_max)  # c(1) = c_max
            for gamma in (np.nextafter(lo, 0.0), lo, hi, np.nextafter(hi, 1.0)):
                mdp = RegulationMdp(space, actions, harm, cost, drift, float(gamma))
                h = minimal_horizon(mdp, target)
                assert truncation_bound(mdp, h) <= target
                assert h <= 2 or truncation_bound(mdp, h - 2) > target

    @pytest.mark.parametrize("half_cost, gamma, target", [
        # a subnormal target: the bound keeps a few bits, and one more step
        # past the formula's horizon left it at 4.12e-318
        (5.215354866763183 / 2, 0.9999808138393249, 3.428465e-318),
        # the CLI's own target: the logs' rounding, divided by log gamma of
        # -2.1e-13, put the formula hundreds of steps short
        (6.78226840593168e294, 0.9999999999997865, 1e-6),
    ])
    def test_a_horizon_the_formula_misses_is_searched_for(self, mdp, half_cost, gamma, target):
        far = dataclasses.replace(mdp, cost=CostModel(half_cost, half_cost), gamma=gamma)
        h = minimal_horizon(far, target)
        assert truncation_bound(far, h) <= target < truncation_bound(far, h - 1)

    def test_a_zero_cost_ceiling_gets_horizon_one(self, harm):
        # 5e-324 * e**2 + 5e-324 * e rounds to 0 at e_max 0.4: nothing is cut off
        space = build_state_space(0.0, 0.4, 11, 0.4)
        free = RegulationMdp(space, build_action_grid(0.4, 1e-3, space.levels), harm,
                             CostModel(5e-324, 5e-324), DriftModel.constant(0.3, 11), 0.9)
        assert free.cost_ceiling == 0.0
        myopic = dataclasses.replace(free, gamma=0.0)  # log gamma = -inf too: a NaN quotient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert minimal_horizon(free, 1e-6) == minimal_horizon(myopic, 1e-6) == 1
        assert truncation_bound(free, 1) == 0.0

    def test_myopic_horizon_is_one(self, mdp):
        m0 = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, 0.0)
        assert minimal_horizon(m0, 1e-6) == 1
        assert truncation_bound(m0, 1) == 0.0
        # stopping before the first step cuts off the whole return, bounded by cost(e_max)
        assert truncation_bound(m0, 0) == mdp.cost.value(mdp.actions.e_max)

    def test_a_run_beyond_the_episode_step_cap_is_refused_before_it_starts(
        self, mdp, monkeypatch
    ):
        # n_episodes * horizon may reach 1e11; the rollouts are stubbed out,
        # so only the check runs
        calls = []

        def no_rollout(returns, batches, *args):
            calls.append(batches)
            returns[batches.start * 8192 : batches.stop * 8192] = 0.0

        monkeypatch.setattr(simulate, "_share_returns", no_rollout)
        pol = Policy.comply(mdp.space)
        patient = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, 0.9999)
        assert estimate_value(patient, pol).horizon == 225_139  # 2.25e10 episode-steps
        estimate_value(mdp, pol, n_episodes=10**5, horizon=10**6)
        calls.clear()
        with pytest.raises(DomainError, match=r"n_episodes \(100000\) \* horizon \(1000001\)"):
            estimate_value(mdp, pol, n_episodes=10**5, horizon=10**6 + 1)
        endless = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift,
                                0.9999999999999999)
        with pytest.raises(DomainError, match=r"at gamma 0\.9999999999999999 is 4\.51e\+22"):
            estimate_value(endless, pol)
        assert calls == []

    def test_short_horizon_raises_and_names_the_fix(self, mdp):
        pol = Policy.comply(mdp.space)
        with pytest.raises(HorizonTooShortError) as exc:
            estimate_value(mdp, pol, n_episodes=100, horizon=5)
        assert exc.value.minimal_horizon == 149
        assert "149" in str(exc.value)


def two_branch_horizon(gamma, c_max, max_bias):
    """minimal_horizon as it was before the one log formula: the reference."""
    if gamma == 0.0:
        return 1
    ratio = max_bias * (1.0 - gamma) / c_max
    if ratio >= 1.0:
        return 1
    if ratio < np.finfo(float).tiny:  # the product underflows; add its factors' logs
        log_ratio = np.log(max_bias) + np.log(1.0 - gamma) - np.log(c_max)
    else:
        log_ratio = np.log(ratio)
    return max(1, int(np.ceil(log_ratio / np.log(gamma))))


def reference_estimate(mdp, policy, n_episodes, horizon, seed, start_index=None):
    """estimate_value written serially from the one-uniform definition.

    Batch b of 8192 episodes draws from its own SFC64 stream keyed by
    (seed, b), built here rather than through simulate._episode_rng. Every
    step adds the discounted reward, draws random(n) once, and moves each
    episode to the top state if u < h, one state down if u < h + (1 - h) * g,
    and nowhere otherwise.
    """
    top = mdp.space.backlash_index
    start = top if start_index is None else start_index
    harm = np.asarray(mdp.harm.prob(policy.efforts))
    reward = -np.asarray(mdp.cost.value(policy.efforts))
    move = harm + (1.0 - harm) * mdp.drift.probs
    down = np.maximum(np.arange(mdp.space.n_states) - 1, 0)
    chunks = []
    for batch, done in enumerate(range(0, n_episodes, 8192)):
        n = min(8192, n_episodes - done)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(batch,)))
        )
        state = np.full(n, start)
        total = np.zeros(n)
        disc = 1.0
        for _ in range(horizon):
            total += disc * reward[state]
            u = rng.random(n)
            state = np.where(u < harm[state], top, np.where(u < move[state], down[state], state))
            disc *= mdp.gamma
        chunks.append(total)
    returns = np.concatenate(chunks)
    sd = float(returns.std(ddof=1))
    half_width = 1.959963984540054 * sd / np.sqrt(n_episodes)
    return ValueEstimate(
        float(returns.mean()), float(half_width), truncation_bound(mdp, horizon), horizon
    )


def record_allocations(monkeypatch):
    """Record (size, dtype) of every np.empty call that simulate makes."""
    allocated = []

    class Recording:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, size, dtype=float):
            allocated.append((size, np.dtype(dtype)))
            return np.empty(size, dtype=dtype)

    monkeypatch.setattr(simulate, "np", Recording())
    return allocated


@pytest.fixture(params=[None, 1, 2, 8], ids=["machine-cpus", "one-cpu", "two-cpus", "eight-cpus"])
def cpus(request, monkeypatch):
    """The CPU count estimate_value sees: the machine's, or forced."""
    if request.param is not None:
        monkeypatch.setattr(simulate, "_available_cpus", lambda: request.param)
    return request.param


class TestBitIdentity:
    """estimate_value equals the serial reference exactly, whatever the thread count."""

    @pytest.mark.parametrize(
        "n_episodes", [2, 8191, 8192, 8193, 3 * 8192 + 5, 7 * 8192 + 1, 17 * 8192 + 5, 100_000]
    )
    def test_matches_the_serial_reference(self, mdp, cpus, n_episodes):
        pol = Policy.threshold(mdp.space, 0.45)
        est = estimate_value(mdp, pol, n_episodes=n_episodes, seed=17)
        assert est == reference_estimate(mdp, pol, n_episodes, est.horizon, seed=17)

    def test_from_the_bottom_state(self, mdp, cpus):
        pol = Policy.threshold(mdp.space, 0.45)
        est = estimate_value(mdp, pol, start_level=0.0, n_episodes=2 * 8192 + 1, seed=3)
        assert est == reference_estimate(mdp, pol, 2 * 8192 + 1, est.horizon, 3, start_index=0)

    @pytest.mark.parametrize("n_states", [255, 256, 257])
    @pytest.mark.parametrize("horizon", [1, 2], ids=["no-move", "one-move"])
    @pytest.mark.parametrize("start_index", [None, 0], ids=["top-start", "bottom-start"])
    def test_where_the_depth_dtype_widens(self, mdp, cpus, n_states, horizon, start_index):
        # depth + 1 reaches n_states at the bottom state just before the harm
        # reset; its narrow dtype is uint8 up to 255 states and uint16 from
        # 256, and at 257 the bottom state's own depth 256 needs uint16
        space = build_state_space(0.0, 1.0, n_states, 1.0)
        wide = RegulationMdp(
            space, build_action_grid(1.0, 1e-3, space.levels), mdp.harm, mdp.cost,
            DriftModel.constant(0.3, n_states), mdp.gamma,
        )
        pol = Policy.comply(space)
        start = None if start_index is None else float(space.levels[start_index])
        est = estimate_value(wide, pol, start_level=start, n_episodes=8192 + 3, horizon=horizon,
                             seed=13, max_truncation_bias=10.0)
        assert est == reference_estimate(wide, pol, 8192 + 3, horizon, 13, start_index)

    @pytest.mark.parametrize("n_states, dtype", [
        (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
    ])
    def test_the_narrow_depth_holds_the_state_count(self, monkeypatch, n_states, dtype):
        # a dtype holding only n_states - 1 would wrap depth + 1 to 0 at the
        # bottom state, which the harm reset then zeroes anyway, so no
        # estimate can show it; the update must not lean on that wraparound
        allocated = record_allocations(monkeypatch)
        tables = np.zeros(n_states)
        simulate._share_returns(np.empty(1), range(1), 0, 0, 1, 0.9, tables, tables, tables)
        assert [d for _, d in allocated if d.kind == "u"] == [np.dtype(dtype)]

    def test_when_the_discount_underflows(self, mdp, cpus):
        # gamma**k reaches the subnormals and then 0 well inside the horizon,
        # where the batches stop early; the reference runs every step
        tiny = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, 1e-5)
        pol = Policy.threshold(tiny.space, 0.45)
        est = estimate_value(tiny, pol, n_episodes=8192 + 7, horizon=80, seed=5)
        assert est == reference_estimate(tiny, pol, 8192 + 7, 80, seed=5)

    def test_more_threads_than_cores_under_fast_switching(self, mdp, monkeypatch):
        # a lost or misplaced slice write would change the mean
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 6)
        pol = Policy.threshold(mdp.space, 0.45)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = estimate_value(mdp, pol, n_episodes=5 * 8192 + 3, seed=29)
        finally:
            sys.setswitchinterval(interval)
        assert est == reference_estimate(mdp, pol, 5 * 8192 + 3, est.horizon, seed=29)


class TestFlatMemory:
    def test_scratch_never_exceeds_one_span(self, mdp, monkeypatch):
        # each share sizes its five buffers for one span of eight batches,
        # however many episodes it runs; the only larger array is the returns
        n = 40 * 8192 + 3
        allocated = record_allocations(monkeypatch)
        pol = Policy.threshold(mdp.space, 0.45)
        for cpus in (1, 2):
            monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
            estimate_value(mdp, pol, n_episodes=n, seed=2)
        sizes = [size for size, _ in allocated]
        assert len(sizes) == 2 + 5 * 3
        assert sorted(sizes)[-2:] == [n, n]
        assert all(size <= 8 * 8192 for size in sorted(sizes)[:-2])

    def test_each_share_of_a_default_run_on_two_cpus_is_one_pass(self, mdp, monkeypatch):
        # 1e5 episodes are 13 batches, shared 6 and 7 between two workers; a
        # share runs as one pass when every one of its streams is made before
        # any of them draws
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        shares = []
        events = []
        real_share, real_rng = simulate._share_returns, simulate._episode_rng

        def recording_share(returns, batches, *args):
            shares.append(batches)
            real_share(returns, batches, *args)

        class RecordingRng:
            def __init__(self, seed, stream):
                self.batch = stream[0]
                self.rng = real_rng(seed, stream)
                events.append(("made", self.batch))

            def random(self, out):
                events.append(("drew", self.batch))
                self.rng.random(out=out)

        monkeypatch.setattr(simulate, "_share_returns", recording_share)
        monkeypatch.setattr(simulate, "_episode_rng", RecordingRng)
        pol = Policy.threshold(mdp.space, 0.45)
        est = estimate_value(mdp, pol, n_episodes=100_000, seed=2)
        assert sorted(len(share) for share in shares) == [6, 7]
        for share in shares:
            kinds = [kind for kind, batch in events if batch in share]
            assert kinds.index("drew") == len(share) == kinds.count("made")
        assert est == reference_estimate(mdp, pol, 100_000, est.horizon, seed=2)


class TestTransitionLaw:
    @pytest.mark.parametrize("drift_p", [None, 1.0, 0.0], ids=["canonical", "drift-1", "drift-0"])
    def test_one_step_matches_the_transition_distribution(self, mdp, drift_p):
        # under comply every state has its own reward, so a two-step return
        # r[s] + gamma * r[s'] names the state s' each episode moved to
        if drift_p is not None:
            drift = DriftModel.constant(drift_p, mdp.space.n_states)
            mdp = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, drift, mdp.gamma)
        pol = Policy.comply(mdp.space)
        harm, reward, move = simulate._step_tables(mdp, pol)
        n = 100_000
        total = np.empty(n)
        for start in range(mdp.space.n_states):
            # all 13 batches as one share of two spans, on streams of their own
            simulate._share_returns(
                total, range(-(-n // 8192)), 41 + start, start, 2, mdp.gamma, harm, reward, move,
            )
            candidates = reward[start] + mdp.gamma * reward
            assert np.unique(candidates).size == candidates.size
            counts = np.array([np.count_nonzero(total == c) for c in candidates])
            assert counts.sum() == n
            expected = np.zeros(mdp.space.n_states)
            e_c = mdp.space.levels[start]
            for level, prob in mdp.transition_distribution(e_c, pol.efforts[start]):
                expected[mdp.space.index_of(level)] = prob
            se = np.sqrt(expected * (1.0 - expected) / n)
            assert np.all(np.abs(counts / n - expected) <= 5.0 * se), (start, counts, expected)


class TestWorkerFailures:
    @pytest.mark.parametrize("failing_thread", ["helper", "caller"])
    def test_an_error_in_any_share_reaches_the_caller(self, mdp, monkeypatch, failing_thread):
        # with two workers the shares are contiguous: the caller runs batch 0
        # and the helper runs batches 1 and 2 as one span
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 2)
        real = simulate._share_returns

        def failing(returns, batches, *args):
            in_helper = threading.current_thread() is not threading.main_thread()
            if in_helper == (failing_thread == "helper"):
                raise FloatingPointError(f"share failed in the {failing_thread}")
            real(returns, batches, *args)

        monkeypatch.setattr(simulate, "_share_returns", failing)
        before = threading.active_count()
        pol = Policy.threshold(mdp.space, 0.45)
        with pytest.raises(FloatingPointError, match=failing_thread):
            estimate_value(mdp, pol, n_episodes=3 * 8192, seed=1)
        assert threading.active_count() == before

    def test_one_cpu_starts_no_thread(self, mdp, monkeypatch):
        monkeypatch.setattr(simulate, "_available_cpus", lambda: 1)
        started = []
        real = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        pol = Policy.threshold(mdp.space, 0.45)
        est = estimate_value(mdp, pol, n_episodes=3 * 8192, seed=1)
        assert started == []
        assert est == reference_estimate(mdp, pol, 3 * 8192, est.horizon, seed=1)


class TestEstimateValue:
    def test_deterministic_given_seed(self, mdp):
        pol = Policy.threshold(mdp.space, 0.45)
        e1 = estimate_value(mdp, pol, n_episodes=4000, seed=9)
        e2 = estimate_value(mdp, pol, n_episodes=4000, seed=9)
        assert e1 == e2

    # a correct stream lands outside the 95% interval one run in twenty, so a
    # single run is held to 4 standard errors; the calibration test below is
    # the one that can see a small bias
    def test_agrees_with_exact_value_from_backlash_start(self, mdp):
        pol = Policy.threshold(mdp.space, 0.45)
        exact = evaluate_policy(mdp, pol).at_backlash
        est = estimate_value(mdp, pol, n_episodes=60000, seed=12)
        assert abs(agreement_z(est, exact)) <= 4.0

    def test_agrees_with_exact_value_from_the_bottom(self, mdp):
        pol = Policy.threshold(mdp.space, 0.45)
        exact = evaluate_policy(mdp, pol)[0]
        est = estimate_value(mdp, pol, start_level=0.0, n_episodes=60000, seed=12)
        assert abs(agreement_z(est, exact)) <= 4.0

    def test_z_scores_are_standard_normal_over_many_seeds(self, mdp):
        # K runs of 2000 episodes from the backlash state: under an unbiased
        # sampler with a right standard error z has mean 0 and sd 1, so the
        # sample mean lies within 4 / sqrt(K) of 0 and the sample sd within
        # 4 / sqrt(2K) of 1, each but about once in 16,000
        pol = Policy.threshold(mdp.space, 0.45)
        exact = evaluate_policy(mdp, pol).at_backlash
        k = 300
        z = np.array([
            agreement_z(estimate_value(mdp, pol, n_episodes=2000, seed=seed), exact)
            for seed in range(k)
        ])
        assert abs(z.mean()) <= 4.0 / np.sqrt(k), z.mean()
        assert abs(z.std(ddof=1) - 1.0) <= 4.0 / np.sqrt(2 * k), z.std(ddof=1)

    def test_interval_covers_the_exact_value_at_its_nominal_rate(self, mdp):
        # 400 seeds of 100 episodes from the backlash state: the 95% interval
        # plus the truncation bound must cover the exact value in
        # 0.95 +- 4 binomial standard deviations (0.022) of the runs
        pol = Policy.threshold(mdp.space, 0.45)
        exact = evaluate_policy(mdp, pol).at_backlash
        covered = 0
        for seed in range(400):
            est = estimate_value(mdp, pol, n_episodes=100, seed=seed)
            covered += abs(est.mean - exact) <= est.half_width_95 + est.truncation_bound
        assert 0.906 <= covered / 400 <= 0.994

    def test_myopic_estimate_is_exact(self, mdp, cost):
        m0 = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, 0.0)
        pol = Policy.comply(m0.space)
        est = estimate_value(m0, pol, n_episodes=100, seed=0)
        assert est.mean == -cost.value(1.0)
        assert est.half_width_95 == 0.0
        assert est.truncation_bound == 0.0

    def test_frozen_state_has_zero_variance(self, space, actions, harm, cost):
        # with no drift the backlash state is absorbing, so the return is
        # the same truncated geometric series in every episode
        m = RegulationMdp(space, actions, harm, cost, DriftModel.constant(0.0, 11), 0.9)
        pol = Policy.threshold(m.space, 1.0)
        est = estimate_value(m, pol, n_episodes=500, seed=4)
        horizon = minimal_horizon(m, 1e-6)
        expected = -cost.value(1.0) * (1 - 0.9**horizon) / 0.1
        assert est.half_width_95 == 0.0
        assert est.mean == pytest.approx(expected, rel=1e-12)
        exact = evaluate_policy(m, pol).at_backlash
        # the cut-off tail hits the bound with equality here, so allow
        # accumulated float rounding on top of it
        assert abs(est.mean - exact) <= est.truncation_bound * (1 + 1e-6)

    def test_near_certain_harm_pins_the_backlash_state(self, space, actions, cost, drift):
        certain = HarmModel(1.0 - 1e-15, 1.0, 1.0)
        m = RegulationMdp(space, actions, certain, cost, drift, 0.9)
        pol = Policy.comply(m.space)
        est = estimate_value(m, pol, n_episodes=300, seed=8)
        horizon = minimal_horizon(m, 1e-6)
        expected = -cost.value(1.0) * (1 - 0.9**horizon) / 0.1
        assert est.half_width_95 <= 1e-12
        assert est.mean == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("target", [0.0, -1e-6, float("nan")], ids=["zero", "negative", "nan"])
    def test_rejects_a_bias_target_that_is_not_positive(self, mdp, target):
        pol = Policy.comply(mdp.space)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="max_bias"):
                minimal_horizon(mdp, target)
            for horizon in (None, 200):
                with pytest.raises(DomainError, match="max_truncation_bias"):
                    estimate_value(
                        mdp, pol, n_episodes=100, horizon=horizon, max_truncation_bias=target
                    )

    def test_rejects_bad_arguments(self, mdp):
        pol = Policy.comply(mdp.space)
        with pytest.raises(DomainError):
            estimate_value(mdp, pol, n_episodes=1)
        with pytest.raises(DomainError):
            estimate_value(mdp, pol, seed=-2)
        with pytest.raises(DomainError):
            estimate_value(mdp, pol, start_level=0.123)
        with pytest.raises(DomainError):
            estimate_value(mdp, pol, start_level=np.nan)
        elsewhere = Policy.comply(StateSpace(np.linspace(0.2, 1.0, 11)))
        with pytest.raises(FeasibilityError, match="different state spaces"):
            estimate_value(mdp, elsewhere, n_episodes=100)

    @pytest.mark.parametrize("a, b", [
        # returns near -1e151 are scaled by 2**-502 before the mean and the
        # standard deviation, and back after
        (1e-300, 1e150),
        # a value scale of 2e-309 has a frexp exponent below -1024; 2**1024
        # is no float, and a scale below 1 is left as it is
        (1e-310, 1e-310),
    ])
    def test_scaled_moments_are_the_plain_ones(self, space, actions, harm, drift, a, b):
        m = RegulationMdp(space, actions, harm, CostModel(a, b), drift, 0.9)
        pol = Policy.threshold(m.space, 0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_value(m, pol, n_episodes=2000, seed=5)
        assert est == reference_estimate(m, pol, 2000, est.horizon, seed=5)

    def test_returns_near_the_float_ceiling_keep_finite_moments(self, space, actions, harm,
                                                                drift):
        # returns near -9e306: their sum and their squares overflow unscaled
        m = RegulationMdp(space, actions, harm, CostModel(1e-300, 1e306), drift, 0.9)
        pol = Policy.threshold(m.space, 0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_value(m, pol, n_episodes=2000, seed=5)
            z = agreement_z(est, evaluate_policy(m, pol).at_backlash)
        assert np.isfinite(est.mean) and 0.0 < est.half_width_95 < np.inf
        assert abs(z) <= 4.0

    def test_refuses_an_effort_above_the_action_ceiling(self, mdp):
        # the truncation bound assumes every cost is at most c(e_max): at
        # effort 1.5 the tail cut off at 149 steps is 1.9e-6, above its
        # 1e-6 target, while the bound would claim 9.1e-7
        with pytest.raises(DomainError, match="action ceiling"):
            estimate_value(mdp, Policy.threshold(mdp.space, 1.5), n_episodes=100)
        estimate_value(mdp, Policy.threshold(mdp.space, 1.0 + 1e-13), n_episodes=100)
