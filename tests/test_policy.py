"""Exact evaluation, action values, and the brute-force optimality oracle."""

import dataclasses
import hashlib
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import regmdp.policy as policy_module
from regmdp import (
    CostModel,
    DomainError,
    Policy,
    RegulationMdp,
    ValueFunction,
    evaluate_policy,
    evaluate_threshold_policy,
    load_config,
    policy_improvement_check,
    q_value,
    value_iteration,
)
from regmdp.thresholds import optimal_threshold
from regmdp.verification import random_mdp

from conftest import forward_pass, forward_values, two_pass_residual

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def remake(mdp, gamma):
    return RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, gamma)


class TestEvaluatePolicy:
    def test_always_top_effort_is_a_geometric_series(self, mdp, cost):
        # playing the backlash effort everywhere decouples value from the state
        vf = evaluate_policy(mdp, Policy.threshold(mdp.space, 1.0))
        expected = -cost.value(1.0) / (1.0 - 0.9)
        assert np.allclose(vf.values, expected, rtol=0, atol=1e-9)
        assert expected == pytest.approx(-6.0, rel=1e-15)

    def test_matches_iterative_evaluation(self, mdp):
        policy = Policy.threshold(mdp.space, 0.37)
        vf = evaluate_policy(mdp, policy)
        p = mdp.transition_matrix(policy.efforts)
        r = -np.asarray(mdp.cost.value(policy.efforts))
        v = np.zeros(mdp.space.n_states)
        for _ in range(250):  # 0.9**250 is far below the comparison tolerance
            v = r + 0.9 * (p @ v)
        assert np.allclose(vf.values, v, rtol=0, atol=1e-8)

    def test_myopic_platform_pays_one_period_of_cost(self, mdp):
        m0 = remake(mdp, 0.0)
        vf = evaluate_policy(m0, Policy.comply(m0.space))
        assert np.allclose(vf.values, -m0.cost.value(m0.space.levels), atol=1e-15)

    def test_values_are_nonpositive_and_bounded(self, mdp):
        vf = evaluate_policy(mdp, Policy.comply(mdp.space))
        assert np.all(vf.values <= 1e-10)
        assert np.all(vf.values >= -mdp.cost.value(1.0) / 0.1 - 1e-9)

    def test_more_patience_means_more_accumulated_cost(self, mdp):
        prev = 0.0
        for gamma in (0.0, 0.5, 0.9):
            v = evaluate_policy(remake(mdp, gamma), Policy.threshold(mdp.space, 0.5))
            assert v.at_backlash < prev
            prev = v.at_backlash

    @pytest.mark.parametrize("demo", ["canonical", "design_feasible"])
    def test_rounding_bounds_are_no_looser_than_the_old_absolute_ones(self, demo):
        # the residual bound and the held-state spread bound are ulps of a
        # value scale at most |floor|; at the demos' scale they stay within
        # the absolute 1e-10 and 1e-9 they replace
        mdp = load_config(str(DEMOS / f"{demo}.json")).mdp()
        scale = mdp.cost.value(mdp.actions.e_max) / (1.0 - mdp.gamma)
        bound = policy_module._residual_bound(mdp, scale)
        assert bound <= 1e-10
        assert 2.0 * bound / (1.0 - mdp.gamma) <= 1e-9

    def test_a_solve_off_by_more_than_rounding_is_refused(self, mdp, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-12))
        with pytest.raises(RuntimeError, match="Bellman residual"):
            evaluate_policy(mdp, Policy.comply(mdp.space))

    def test_value_function_shape_must_match(self, mdp):
        with pytest.raises(DomainError):
            ValueFunction(mdp.space, np.zeros(3))


class TestThresholdEvaluation:
    def test_states_under_threshold_share_one_value(self, mdp):
        vf = evaluate_threshold_policy(mdp, 0.45)
        held = mdp.space.levels <= 0.45
        assert held.sum() == 5
        assert np.ptp(vf.values[held]) <= 1e-9

    def test_shared_value_satisfies_its_own_recursion(self, mdp, cost, harm):
        # under the threshold, harm is the only way out of the shared block
        tau = 0.45
        vf = evaluate_threshold_policy(mdp, tau)
        h = harm.prob(tau)
        expected = (-cost.value(tau) + 0.9 * h * vf.at_backlash) / (1.0 - 0.9 * (1.0 - h))
        assert vf[0] == pytest.approx(expected, abs=1e-10)

    def test_backlash_value_satisfies_its_own_recursion(self, mdp, cost, harm):
        vf = evaluate_threshold_policy(mdp, 0.45)
        h = harm.prob(1.0)
        stay = h + (1.0 - h) * 0.7
        expected = (-cost.value(1.0) + 0.9 * (1.0 - h) * 0.3 * vf[9]) / (1.0 - 0.9 * stay)
        assert vf.at_backlash == pytest.approx(expected, abs=1e-10)

    def test_rejects_thresholds_outside_the_space(self, mdp):
        with pytest.raises(DomainError):
            evaluate_threshold_policy(mdp, 1.2)
        with pytest.raises(DomainError):
            evaluate_threshold_policy(mdp, -0.1)

    @pytest.mark.parametrize("taus, named", [
        ([0.1, 1.2], "1.2"), ([-0.1, 0.5], "-0.1"), ([0.5, float("nan")], "nan"),
    ], ids=["above", "below", "nan"])
    def test_the_scan_refuses_a_threshold_outside_the_space(self, mdp, taus, named):
        with pytest.raises(DomainError, match=f"threshold must lie in .*, got {named}$"):
            policy_module.ThresholdChain(mdp).last_hold(np.array(taus))

    def test_a_backup_off_by_more_than_rounding_is_refused(self, mdp, monkeypatch):
        _overcharge(monkeypatch)
        with pytest.raises(RuntimeError, match="Bellman residual"):
            evaluate_threshold_policy(mdp, 0.45)

    def test_every_scan_candidate_passes_the_residual_check(self, mdp, monkeypatch):
        # optimal_threshold evaluates its candidates on one chain, not through
        # evaluate_threshold_policy, and still refuses a backup that is off
        _overcharge(monkeypatch)
        with pytest.raises(RuntimeError, match="Bellman residual"):
            optimal_threshold(mdp)

    @pytest.mark.parametrize("evaluate", [
        evaluate_threshold_policy,
        lambda mdp, tau: evaluate_policy(mdp, Policy.threshold(mdp.space, tau)),
        lambda mdp, tau: optimal_threshold(mdp),
    ], ids=["structured", "dense", "scan"])
    def test_values_outside_the_reward_range_are_refused(self, mdp, evaluate):
        # a cost curve that pays out makes every value positive
        paid = RegulationMdp(mdp.space, mdp.actions, mdp.harm, _Payout(mdp.cost),
                             mdp.drift, mdp.gamma)
        with pytest.raises(RuntimeError, match="feasible reward range"):
            evaluate(paid, 0.45)

    @pytest.mark.parametrize("evaluate", [
        evaluate_threshold_policy,
        lambda mdp, tau: evaluate_policy(mdp, Policy.threshold(mdp.space, tau)),
        lambda mdp, tau: optimal_threshold(mdp),
    ], ids=["structured", "dense", "scan"])
    def test_nan_values_are_refused(self, mdp, evaluate):
        # a harm curve that is NaN at the backlash level makes every value
        # NaN; each comparison with NaN is False, so a check written as
        # residual > bound passed them, and the scan returned 0.0
        blank = dataclasses.replace(mdp, harm=_BlankAbove(mdp.harm, 0.95))
        with pytest.raises(RuntimeError, match="Bellman residual of nan"):
            evaluate(blank, 0.45)

    @pytest.mark.parametrize("v_min, v_max", [(np.nan, -1.0), (-1.0, np.nan)],
                             ids=["v_min", "v_max"])
    def test_a_nan_value_range_is_refused(self, mdp, v_min, v_max):
        with pytest.raises(RuntimeError, match="feasible reward range"):
            policy_module._check(0.0, v_min, v_max, policy_module._value_limits(mdp))


class TestFusedResidual:
    """The value pass's residual: the worst one against the backward pass's
    V_B, plus gamma |v[-1] - V_B|, which bounds the residual taken with V_B
    read back from the last value (`two_pass_residual`, the reference)."""

    def test_a_backlash_value_off_by_more_than_rounding_is_refused(self, mdp, monkeypatch):
        # each value satisfies its recursion against the skewed V_B, so only
        # the closure term gamma |v[-1] - V_B| sees that V_B is wrong
        build = policy_module.ThresholdChain.__init__

        def skewed(self, mdp):
            build(self, mdp)
            self._p = [p * (1.0 + 1e-9) for p in self._p]

        monkeypatch.setattr(policy_module.ThresholdChain, "__init__", skewed)
        with pytest.raises(RuntimeError, match="Bellman residual"):
            evaluate_threshold_policy(mdp, 0.45)
        with pytest.raises(RuntimeError, match="Bellman residual"):
            optimal_threshold(mdp)

    def test_bounds_the_two_pass_residual_at_every_scan_candidate(self, monkeypatch):
        # 20 draws up to gamma 0.9999, then 6 at the patient edge
        residuals = []
        check = policy_module._check

        def recording(residual, v_min, v_max, limits):
            residuals.append(residual)
            check(residual, v_min, v_max, limits)

        monkeypatch.setattr(policy_module, "_check", recording)
        rng = np.random.default_rng(37)
        patient = (1 - 1e-9, 1 - 1e-12, 1 - 2.0**-53)
        for case in range(26):
            mdp = random_mdp(rng, (3, 60), (0.3, 0.9999))
            if case >= 20:
                mdp = dataclasses.replace(mdp, gamma=patient[case % 3])
            chain = policy_module.ThresholdChain(mdp)
            bound = chain._limits[1]
            efforts = mdp.actions.efforts
            cand = efforts[efforts <= mdp.space.backlash_level + 1e-12]
            ks = np.searchsorted(mdp.space.levels, cand, side="right").tolist()
            for k, h0, c0 in zip(ks, mdp.harm.prob(cand).tolist(), mdp.cost.value(cand).tolist()):
                _, v = chain._gap(k, h0, c0)
                fused = residuals.pop()
                # each residual rounds within a few ulps of the largest |value|
                rounding = 4 * float(np.spacing(max(map(abs, v))))
                assert fused >= two_pass_residual(mdp, k, h0, c0, v) - rounding, (case, k)
                assert fused <= bound / 2, (case, k)


# configs where the closed-form backlash value is checked at every split
CLOSED_FORM = {
    "canonical": {},
    "gamma 0.9999": {"gamma": 0.9999},
    "201 states, gamma 0.9999": {"state_count": 201, "gamma": 0.9999},
    "h_max 1": {"h_max": 1},
    "drift 1": {"drift": 1},
}


def _assert_closed_form_matches(mdp):
    """At every split k = 0 .. n, the closed-form gap is the forward pass's.

    Split k holds states 0 .. k-1 at the effort levels[k - 1]; at k = 0 every
    state complies, which no threshold gives when the lowest level is 0, so
    the splits go through `_gap` and the tests' `forward_pass` directly. They
    must agree within one (3n + 4)-ulp residual bound of the value scale;
    about 2 ulps is the worst seen on these configs and draws.
    """
    chain = policy_module.ThresholdChain(mdp)
    levels = mdp.space.levels.tolist()
    n = len(levels)
    assert (chain._p[n], chain._r[n], chain._s[n]) == (0.0, 1.0, 0.0)  # all states held
    bound = chain._limits[1]  # (3n + 4) ulps of the value scale
    for k in range(n + 1):
        h0 = c0 = 0.0
        if k:
            h0, c0 = float(mdp.harm.prob(levels[k - 1])), float(mdp.cost.value(levels[k - 1]))
        v = forward_pass(mdp, k, h0, c0)
        assert abs(chain._gap(k, h0, c0)[0] - (v[0] - v[-1])) <= bound, k


class TestClosedFormGap:
    """The gap u - q V_B = (-c(tau) - (1 - gamma) V_B) / (1 - gamma (1 - h(tau))).

    V_B comes from the backward pass; the forward pass's held value minus its
    V_B is the reference.
    """

    @pytest.mark.parametrize("config", list(CLOSED_FORM))
    def test_matches_the_forward_pass_at_every_split(self, config):
        _assert_closed_form_matches(load_config(None, CLOSED_FORM[config]).mdp())

    def test_matches_the_forward_pass_on_random_draws(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            _assert_closed_form_matches(random_mdp(rng, (3, 60), (0.3, 0.9999)))


def _overcharge(monkeypatch):
    """Make each chain's backup charge the states above tau 1e-6 more than their values paid."""
    build = policy_module.ThresholdChain.__init__

    def overcharging(self, mdp):
        build(self, mdp)
        self._rows = [row[:5] + [row[5] + 1e-6] for row in self._rows]

    monkeypatch.setattr(policy_module.ThresholdChain, "__init__", overcharging)


class _BlankAbove:
    """A harm curve that reads NaN above an effort, duck-typed as `RegulationMdp` allows."""

    def __init__(self, harm, top):
        self.harm, self.top = harm, top

    def prob(self, e):
        return self._blank(e, self.harm.prob(e))

    def derivative(self, e):
        return self._blank(e, self.harm.derivative(e))

    def _blank(self, e, x):
        out = np.where(np.asarray(e) > self.top, np.nan, x)
        return float(out) if out.ndim == 0 else out


class _Payout:
    """A cost curve negated: a reward for effort, which no cost model allows."""

    def __init__(self, cost):
        self.cost = cost

    def value(self, e):
        return -self.cost.value(e)

    def derivative(self, e):
        return -self.cost.derivative(e)

    ceiling = CostModel.ceiling  # the model's own finiteness check, on the negated curve


# configs at the edges of what load_config accepts
EDGES = {
    "gamma 0.9999": {"gamma": 0.9999},
    "201 states, gamma 0.9999": {"state_count": 201, "gamma": 0.9999},
    "1001 states": {"state_count": 1001},
    "drift 0": {"drift": 0},
    "drift 1": {"drift": 1},
    "k 1e4": {"k": 1e4},
    "h_max 1": {"h_max": 1},
    "state_min 0.3": {"state_min": 0.3},
    "patient, costly effort": {"gamma": 0.9999, "effort_max": 5, "backlash_effort": 5,
                               "cost_a": 3},
}


def edge_taus(space):
    """Thresholds at 0, on a level, between two levels, and at the backlash level."""
    lv = space.levels
    return [0.0, float(lv[3]), float(0.5 * (lv[3] + lv[4])), float(lv[-1])]


def exact_threshold_values(mdp, tau):
    """Values of the threshold chain from its float inputs, in exact rational arithmetic."""
    efforts = np.maximum(mdp.space.levels, tau)
    h = [Fraction(x) for x in mdp.harm.prob(efforts)]
    c = [Fraction(x) for x in mdp.cost.value(efforts)]
    g = [Fraction(x) for x in mdp.drift.probs]
    gamma, n = Fraction(mdp.gamma), len(h)
    rows = [[Fraction(int(i == j)) for j in range(n)] + [-c[i]] for i in range(n)]
    for i in range(n):  # (I - gamma P) v = r, augmented with r
        rows[i][n - 1] -= gamma * h[i]
        rows[i][i] -= gamma * (1 - h[i]) * (1 - g[i])
        if i:
            rows[i][i - 1] -= gamma * (1 - h[i]) * g[i]
    for col in range(n):  # Gauss-Jordan; the matrix is diagonally dominant
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStructuredAgainstDense:
    @pytest.mark.parametrize("edge", list(EDGES))
    def test_values_agree_at_the_edges_of_the_validated_space(self, edge):
        mdp = load_config(None, EDGES[edge]).mdp()
        for tau in edge_taus(mdp.space):
            structured = evaluate_threshold_policy(mdp, tau).values
            dense = evaluate_policy(mdp, Policy.threshold(mdp.space, tau)).values
            bound = 2.0 * policy_module._residual_bound(mdp, np.abs(dense).max())
            bound /= 1.0 - mdp.gamma
            assert np.abs(structured - dense).max() <= bound, tau
            held = mdp.space.levels <= tau
            assert held.sum() == 0 or np.ptp(structured[held]) == 0.0

    def test_at_gamma_09999_the_structured_values_are_the_closer_ones(self):
        # dense and structured differ in the 12th digit here (-481419.370777
        # and ...778); the exact solve of the same float inputs reads
        # -481419.3707777, so the dense solve carries the larger error
        mdp = load_config(None, EDGES["patient, costly effort"]).mdp()
        tau = optimal_threshold(mdp)
        exact = exact_threshold_values(mdp, tau)
        structured = evaluate_threshold_policy(mdp, tau).values
        dense = evaluate_policy(mdp, Policy.threshold(mdp.space, tau)).values
        err_structured = [abs(Fraction(x) - y) for x, y in zip(structured, exact)]
        err_dense = [abs(Fraction(x) - y) for x, y in zip(dense, exact)]
        assert all(s < d for s, d in zip(err_structured, err_dense))
        scale = float(mdp.cost.value(mdp.actions.e_max)) / (1.0 - mdp.gamma)
        assert float(max(err_structured)) <= policy_module._residual_bound(mdp, scale)
        assert "%.12g" % structured[0] == "%.12g" % float(exact[0]) == "-481419.370778"


def _assert_near_exact(mdp):
    """At the stable effort, every value lies within (n + 4) ulps of the exact one.

    The exact values are `forward_pass` in Fractions, from the same float
    inputs; the ulps are those of the value scale c(e_max) / (1 - gamma).
    The worst on these configs and draws is about 3.5 ulps, at 201 states.
    """
    tau = optimal_threshold(mdp)
    exact = forward_values(mdp, tau, Fraction)
    values = evaluate_threshold_policy(mdp, tau).values.tolist()
    bound = (mdp.space.n_states + 4) * np.spacing(mdp.cost_ceiling / (1.0 - mdp.gamma))
    assert max(abs(Fraction(x) - y) for x, y in zip(values, exact)) <= Fraction(bound)


class TestExactValues:
    @pytest.mark.parametrize("edge", ["gamma 0.9999", "201 states, gamma 0.9999"])
    def test_at_gamma_09999(self, edge):
        _assert_near_exact(load_config(None, EDGES[edge]).mdp())

    def test_on_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            _assert_near_exact(random_mdp(rng, (3, 40), (0.3, 0.9999)))


# the stable effort as float hex, and a digest of the float hex of the values
# under it, that optimal_threshold and evaluate_threshold_policy return on 20
# seeded random_mdp draws and on the edge configs; a change to the solver's
# arithmetic must reproduce them bit for bit
SEED_GOLDEN = {
    0: ("0x1.29f374bc6a7f0p-3", "a4542feda9101fb5"),
    1: ("0x1.0df9fbe76c8b4p-2", "21abd596d5ea6fdc"),
    2: ("0x0.0p+0", "a27d8db8be4fceaa"),
    3: ("0x0.0p+0", "0fc52bda02a5acf6"),
    4: ("0x1.0eca1cac08312p-2", "db3bbccf5fd9cf74"),
    5: ("0x1.dc1e353f7ced9p-4", "813817dcdd3cf1a9"),
    6: ("0x1.46883126e978ep-5", "1ab33d80d4b9e164"),
    7: ("0x1.4bebc6a7ef9dcp-3", "4c33e3163e6ed7e1"),
    8: ("0x1.2673b645a1cacp-5", "275ebfdf225b9c7e"),
    9: ("0x1.50689374bc6a8p-2", "f0900b0da551b952"),
    10: ("0x1.fdfc6a7ef9db2p-4", "5c7ef4a07998dcfc"),
    11: ("0x1.c20e560418937p-6", "180bd10dad83f8d8"),
    12: ("0x1.18b04189374bcp-2", "6b0aefbb2721caa0"),
    13: ("0x1.614f7ced91688p-2", "1204e0556cc80da6"),
    14: ("0x1.8a0810624dd30p-2", "c9f96463ee4d5881"),
    15: ("0x1.4afced916872cp-5", "82ed21b0440cd8bb"),
    16: ("0x1.0f6e560418938p-3", "3f94940f82dee752"),
    17: ("0x0.0p+0", "5335ed2b78715de0"),
    18: ("0x1.2715c28f5c290p-3", "a554e568fdce5c66"),
    19: ("0x1.d051a9fbe76cap-3", "4c30cb9c33873fa3"),
}
EDGE_GOLDEN = {
    "gamma 0.9999": ("0x1.fd478d4fdf3b6p-2", "8065bf79b605972f"),
    "201 states, gamma 0.9999": ("0x1.21af4bc6a7efbp-1", "cc11e015dc9bb3c5"),
    "1001 states": ("0x1.f994dd2f1a9fcp-2", "5f3008a9ae30f7b6"),
    "drift 0": ("0x1.fa2851eb851eap-2", "a1e19adcb4272466"),
    "drift 1": ("0x1.8ab76c8b43958p-2", "8fe7426badfecbf9"),
    "k 1e4": ("0x1.3d4fdf3b645a3p-10", "0deed22d76fb8a90"),
    "h_max 1": ("0x1.db951eb851ebap-2", "a691e62c7341abf6"),
    "state_min 0.3": ("0x1.d851cac083128p-2", "6b982471ee4c6c7a"),
    "patient, costly effort": ("0x1.8751810624dd4p+0", "62b6732fdacd05b5"),
}


def _stable_hex(mdp):
    stable = optimal_threshold(mdp)
    values = " ".join(float(x).hex() for x in evaluate_threshold_policy(mdp, stable).values)
    return stable.hex(), hashlib.sha256(values.encode()).hexdigest()[:16]


class TestStableEffortGolden:
    @pytest.mark.parametrize("seed", list(SEED_GOLDEN))
    def test_random_draws(self, seed):
        assert _stable_hex(random_mdp(np.random.default_rng(seed))) == SEED_GOLDEN[seed]

    @pytest.mark.parametrize("edge", list(EDGE_GOLDEN))
    def test_edges_of_the_validated_space(self, edge):
        assert _stable_hex(load_config(None, EDGES[edge]).mdp()) == EDGE_GOLDEN[edge]


class TestQValues:
    def test_q_of_the_played_action_is_the_value(self, mdp):
        policy = Policy.threshold(mdp.space, 0.45)
        vf = evaluate_policy(mdp, policy)
        for i, lv in enumerate(mdp.space.levels):
            q = q_value(mdp, vf, float(lv), policy.efforts[i])
            assert q == pytest.approx(vf[i], abs=1e-10)

    def test_q_matches_manual_one_step_expectation(self, mdp):
        # a middle state mixes drift and stay; the bottom state can only stay
        vf = evaluate_policy(mdp, Policy.threshold(mdp.space, 0.45))
        e = 0.7
        for e_c in (0.0, 0.5):
            pairs = mdp.transition_distribution(e_c, e)
            manual = -mdp.cost.value(e) + 0.9 * sum(
                p * vf[mdp.space.index_of(lv)] for lv, p in pairs
            )
            assert q_value(mdp, vf, e_c, e) == pytest.approx(manual, abs=1e-12)

    def test_q_accepts_offgrid_efforts(self, mdp):
        vf = evaluate_policy(mdp, Policy.comply(mdp.space))
        assert np.isfinite(q_value(mdp, vf, 0.5, 0.512345))

    def test_q_rejects_shirking(self, mdp):
        from regmdp import FeasibilityError

        vf = evaluate_policy(mdp, Policy.comply(mdp.space))
        with pytest.raises(FeasibilityError):
            q_value(mdp, vf, 0.5, 0.3)

    def test_q_refuses_a_value_function_of_another_state_space(self, mdp):
        from regmdp import FeasibilityError, StateSpace

        finer = StateSpace(np.linspace(0.0, 1.0, 21))
        vf = ValueFunction(finer, np.full(21, -5.0))
        with pytest.raises(FeasibilityError, match="different state spaces"):
            q_value(mdp, vf, 0.5, 0.5)


class TestValueIteration:
    def test_myopic_optimum_is_exact_compliance(self, mdp):
        m0 = remake(mdp, 0.0)
        policy, vf = value_iteration(m0)
        assert np.array_equal(policy.efforts, m0.space.levels)
        assert np.allclose(vf.values, -m0.cost.value(m0.space.levels), atol=1e-12)

    def test_optimum_dominates_every_threshold_policy(self, mdp):
        _, v_opt = value_iteration(mdp)
        for tau in (0.0, 0.3, 0.45, 0.7, 1.0):
            v = evaluate_policy(mdp, Policy.threshold(mdp.space, tau))
            assert np.all(v_opt.values >= v.values - 1e-9)

    def test_optimal_policy_is_a_threshold_policy(self, mdp):
        policy, _ = value_iteration(mdp)
        stable = optimal_threshold(mdp)
        expected = np.maximum(stable, mdp.space.levels)
        # 1e-3 is the step of the fixture's action grid
        assert np.max(np.abs(policy.efforts - expected)) <= 1e-3 + 1e-9

    def test_matches_the_threshold_solver_at_201_states_and_gamma_0999(self):
        # the edge of the validated space that a 1/(1 - gamma)-sweep oracle
        # could not reach: one action step of agreement in every state
        config = load_config(None, {"state_count": 201, "gamma": 0.999})
        mdp = config.mdp()
        policy, _ = value_iteration(mdp)
        expected = np.maximum(optimal_threshold(mdp), mdp.space.levels)
        assert np.max(np.abs(policy.efforts - expected)) <= config["action_step"] + 1e-9

    def test_guard_names_the_stage(self, mdp, monkeypatch):
        monkeypatch.setattr(policy_module, "_IMPROVEMENT_STEPS", 1)
        with pytest.raises(RuntimeError, match="policy iteration"):
            value_iteration(mdp)


class TestPolicyImprovement:
    def test_brute_force_optimum_is_unimprovable(self, mdp):
        policy, _ = value_iteration(mdp)
        assert policy_improvement_check(mdp, policy) == []

    def test_exact_compliance_is_improvable_when_patient(self, mdp):
        gains = policy_improvement_check(mdp, Policy.comply(mdp.space))
        assert gains, "a patient platform should want to over-comply"
        for state_level, better_effort, gain in gains:
            assert better_effort > state_level
            assert gain > 0
