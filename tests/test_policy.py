"""Exact evaluation, action values, and the brute-force optimality oracle."""

import pathlib

import numpy as np
import pytest

import regmdp.policy as policy_module
from regmdp import (
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
        assert np.max(np.abs(policy.efforts - expected)) <= mdp.actions.step + 1e-9

    def test_matches_the_threshold_solver_at_201_states_and_gamma_0999(self):
        # the edge of the validated space that a 1/(1 - gamma)-sweep oracle
        # could not reach: one action step of agreement in every state
        mdp = load_config(None, {"state_count": 201, "gamma": 0.999}).mdp()
        policy, _ = value_iteration(mdp)
        expected = np.maximum(optimal_threshold(mdp), mdp.space.levels)
        assert np.max(np.abs(policy.efforts - expected)) <= mdp.actions.step + 1e-9

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
