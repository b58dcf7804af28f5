"""Stable effort, backlash design, static audits, and the two-cost sweep."""

import dataclasses

import numpy as np
import pytest

from regmdp import load_config, policy, thresholds
from regmdp import (
    ConstructionError,
    CostModel,
    DomainError,
    DriftModel,
    HarmModel,
    InsufficientMaxEffortError,
    RegulationMdp,
    StateSpace,
    StaticRegime,
    StepAuditFailure,
    RampAuditFailure,
    WelfareModel,
    build_action_grid,
    build_state_space,
    design_backlash,
    impossibility_report,
    optimal_threshold,
    overreaction_gap,
    static_expected_utility,
    static_optimal_effort,
    value_iteration,
)
from regmdp.policy import ThresholdChain
from regmdp.primitives import _bisect
from regmdp.verification import random_mdp

from conftest import NanSlope, forward_values

E_STAR = 0.6284733737717892
E_STAR_2 = 0.8401322599573315
K_CANONICAL = 9.253834082933784


class TestAuditFailureFamilies:
    def test_step_is_flat_below_and_zero_at_requirement(self):
        fam = StepAuditFailure(0.8)
        e = np.array([0.0, 0.3, 0.5, 0.7])
        assert np.allclose(fam(e, 0.5), [0.8, 0.8, 0.0, 0.0])

    def test_ramp_grows_with_the_shortfall_and_caps_at_one(self):
        fam = RampAuditFailure(5.0)
        e = np.array([0.0, 0.42, 0.5, 0.9])
        assert np.allclose(fam(e, 0.5), [1.0, 0.4, 0.0, 0.0])

    def test_reject_bad_parameters(self):
        with pytest.raises(ConstructionError):
            StepAuditFailure(0.0)
        with pytest.raises(ConstructionError):
            StepAuditFailure(1.2)
        with pytest.raises(ConstructionError):
            RampAuditFailure(0.0)


class TestStaticRegime:
    def test_expected_utility_reference_value(self, cost):
        regime = StaticRegime(0.5, 10.0)
        # shirk at 0.2 against a requirement of 0.5: cost 0.04, expected fine 5
        assert static_expected_utility(regime, cost, 0.2, 0.5) == pytest.approx(-5.04)
        assert static_expected_utility(regime, cost, 0.5, 0.5) == pytest.approx(-0.175)
        assert static_expected_utility(regime, cost, 0.7, 0.5) == pytest.approx(
            -cost.value(0.7)
        )

    def test_meeting_the_requirement_kills_the_fine_term(self, cost):
        class AlwaysFail:
            def __call__(self, e, e_c):
                return np.ones_like(np.asarray(e, dtype=float))

        regime = StaticRegime(1.0, 100.0, AlwaysFail())
        assert static_expected_utility(regime, cost, 0.5, 0.5) == pytest.approx(-0.175)

    @pytest.mark.parametrize("p", [1.5, -0.5, np.nan])
    def test_invalid_failure_probabilities_are_rejected(self, cost, actions, p):
        # a check written as pf < 0 or pf > 1 passed NaN: utility nan, and a
        # static effort of 0.0, the argmax of a NaN row
        class Broken:
            def __call__(self, e, e_c):
                return np.full_like(np.asarray(e, dtype=float), p)

        regime = StaticRegime(0.5, 10.0, Broken())
        with pytest.raises(DomainError, match=r"outside \[0, 1\] or NaN$"):
            static_expected_utility(regime, cost, 0.2, 0.5)
        with pytest.raises(DomainError, match=r"outside \[0, 1\] or NaN$"):
            static_optimal_effort(regime, cost, 0.5, actions)

    def test_rejects_bad_regime_parameters(self):
        with pytest.raises(ConstructionError):
            StaticRegime(1.5, 10.0)
        with pytest.raises(ConstructionError):
            StaticRegime(0.5, -1.0)
        with pytest.raises(ConstructionError, match="finite"):
            StaticRegime(0.5, np.inf)
        with pytest.raises(ConstructionError, match="finite"):
            StaticRegime(0.5, 10**400)

    def test_harsh_fines_induce_exact_compliance(self, cost, actions):
        regime = StaticRegime(0.5, 10.0)
        assert static_optimal_effort(regime, cost, 0.5, actions) == pytest.approx(0.5)

    def test_weak_fines_induce_shirking(self, cost, actions):
        regime = StaticRegime(0.5, 0.01)
        assert static_optimal_effort(regime, cost, 0.5, actions) == 0.0

    def test_effort_never_exceeds_the_requirement(self, cost, actions, space):
        for fine in (0.0, 1.0, 1e6, 1e9):
            for fam in (StepAuditFailure(1.0), RampAuditFailure(5.0)):
                regime = StaticRegime(0.9, fine, fam)
                for e_c in space.levels:
                    best = static_optimal_effort(regime, cost, float(e_c), actions)
                    assert best <= e_c + 1e-12


class TestOptimalThreshold:
    def test_canonical_stable_effort(self, mdp):
        stable = optimal_threshold(mdp)
        assert stable == pytest.approx(0.45075146484375, abs=1e-5)

    def test_stable_effort_is_where_holding_stops_paying(self, mdp):
        stable = optimal_threshold(mdp)
        chain = ThresholdChain(mdp)
        assert chain.margin(stable - 1e-3) > 0
        assert chain.margin(stable + 1e-3) < 0

    def test_myopic_platform_holds_nothing(self, mdp):
        m0 = RegulationMdp(mdp.space, mdp.actions, mdp.harm, mdp.cost, mdp.drift, 0.0)
        assert optimal_threshold(m0) == 0.0

    def test_tiny_backlash_level_supports_no_over_compliance(self, harm, cost):
        space = StateSpace(np.array([0.0, 0.01]))
        grid = build_action_grid(1.0, 1e-3, space.levels)
        m = RegulationMdp(space, grid, harm, cost, DriftModel.constant(0.3, 2), 0.9)
        assert optimal_threshold(m) == 0.0

    def test_stable_effort_sits_strictly_below_the_backlash_level(self, mdp):
        assert optimal_threshold(mdp) < mdp.space.backlash_level

    def test_harm_slope_that_underflows_matches_brute_force(self, space, actions, cost, drift):
        # at k = 2000 the harm slope is exactly 0 at the top levels, where the
        # hold margin used to divide by it
        harm = HarmModel(0.1, 0.9, 2000.0)
        assert harm.derivative(1.0) == 0.0
        m = RegulationMdp(space, actions, harm, cost, drift, 0.9)
        stable = optimal_threshold(m)
        brute, _ = value_iteration(m)
        expected = np.maximum(stable, m.space.levels)
        assert np.max(np.abs(brute.efforts - expected)) <= 1e-3 + 1e-9
        assert 0.0 < stable < 0.1

    def test_a_nan_hold_margin_raises(self, mdp):
        # read as "does not hold", a slope that is NaN above 0.3 gave 0.29999951171875006
        nan = dataclasses.replace(mdp, harm=NanSlope(mdp.harm, 0.3))
        with pytest.raises(RuntimeError, match=r"^the hold margin at threshold 1\.0 is NaN$"):
            optimal_threshold(nan)
        chain = ThresholdChain(nan)
        with pytest.raises(RuntimeError, match=r"^the hold margin at threshold 0\.45 is NaN$"):
            chain.margin(0.45)
        assert chain.margin(0.25) == ThresholdChain(mdp).margin(0.25)

    def test_a_nan_hold_margin_in_the_bisection_raises(self, mdp):
        # the search's candidates 0.450 and 0.451 hold and fail as with the
        # real slope; the bisection between them meets the NaN at 0.45075
        nan = dataclasses.replace(mdp, harm=NanSlope(mdp.harm, 0.4507, 0.4508))
        with pytest.raises(RuntimeError, match=r"^the hold margin at threshold 0\.45075 is NaN$"):
            optimal_threshold(nan)

    def test_rejects_bad_refine_tol(self, mdp):
        with pytest.raises(DomainError):
            optimal_threshold(mdp, refine_tol=0.0)


def _candidates(mdp):
    return mdp.actions.efforts[mdp.actions.efforts <= mdp.space.backlash_level + 1e-12]


def _forward_margin(chain, e):
    """`ThresholdChain.margin` with its gap from the tests' forward pass."""
    mdp = chain.mdp
    v = forward_values(mdp, e)
    return (-mdp.gamma * float(mdp.harm.derivative(e)) * (v[0] - v[-1])
            - float(mdp.cost.derivative(e)))


def _scalar_scan(mdp, margin=ThresholdChain.margin, refine_tol=1e-6):
    """The solve as one margin call per candidate, with the same bracket and bisection.

    Returns every candidate's margin, the index of the last one >= 0 (-1 if
    none is) and the stable effort.
    """
    chain = ThresholdChain(mdp)
    cand = _candidates(mdp)
    margins = np.array([margin(chain, e) for e in cand.tolist()])
    holds = np.nonzero(margins >= 0.0)[0]
    if not holds.size:
        return margins, -1, 0.0
    i = int(holds[-1])
    if i == cand.size - 1:
        return margins, i, float(cand[-1])
    lo, hi = float(cand[i]), float(cand[i + 1])
    return margins, i, _bisect(lambda e: margin(chain, e) >= 0.0, lo, hi, refine_tol)


def _assert_search_matches_scalar(mdp):
    _, i, stable = _scalar_scan(mdp)
    assert ThresholdChain(mdp).last_hold(_candidates(mdp)) == i
    assert optimal_threshold(mdp).hex() == stable.hex()
    # an independent reference: every gap from the forward pass, not the
    # closed form that the search and the bisection share
    assert _scalar_scan(mdp, _forward_margin)[2].hex() == stable.hex()


def _count_gaps(monkeypatch):
    """Record the held count k of every `_gap` call from here on."""
    held_counts = []
    gap = ThresholdChain._gap

    def counting(self, k, h0, c0):
        held_counts.append(k)
        return gap(self, k, h0, c0)

    monkeypatch.setattr(ThresholdChain, "_gap", counting)
    return held_counts


class TestArrayScan:
    """`ThresholdChain.last_hold`, the downward search, against `_scalar_scan`."""

    @pytest.mark.parametrize("overrides", [
        {}, {"state_min": 0.5}, {"k": 2000}, {"gamma": 0}, {"gamma": 0.9999},
    ], ids=["canonical", "below every level", "harm slope 0", "gamma 0", "gamma 0.9999"])
    def test_matches_the_scalar_scan_bit_for_bit(self, overrides):
        _assert_search_matches_scalar(load_config(None, overrides).mdp())

    def test_matches_the_scalar_scan_on_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            _assert_search_matches_scalar(random_mdp(rng))

    def test_evaluates_only_the_candidates_down_to_the_last_hold(self, mdp, monkeypatch):
        cand = _candidates(mdp)
        i = _scalar_scan(mdp)[1]
        held_counts = _count_gaps(monkeypatch)
        assert ThresholdChain(mdp).last_hold(cand) == i
        assert len(held_counts) == cand.size - i
        assert 0 < i < cand.size - 1

    def test_candidates_below_every_level_share_one_evaluation(self, monkeypatch):
        # nothing at or above 0.5 holds, so the search reaches the 500
        # candidates below every level and evaluates them once
        mdp = load_config(None, {"state_min": 0.5}).mdp()
        cand = _candidates(mdp)
        assert (cand.size, int((cand < mdp.space.levels[0]).sum())) == (1001, 500)
        i = _scalar_scan(mdp)[1]
        held_counts = _count_gaps(monkeypatch)
        assert ThresholdChain(mdp).last_hold(cand) == i
        assert len(held_counts) == 502
        assert held_counts.count(0) == 1

    def test_a_top_candidate_that_holds_ends_the_search_at_once(self, mdp, monkeypatch):
        # the backlash level itself never holds (its gap is 0 and c' > 0), so
        # the search is cut at the canonical last hold to put it on top
        i = _scalar_scan(mdp)[1]
        held_counts = _count_gaps(monkeypatch)
        assert ThresholdChain(mdp).last_hold(_candidates(mdp)[:i + 1]) == i
        assert len(held_counts) == 1

    def test_nothing_holds_for_a_myopic_platform(self, monkeypatch):
        mdp = load_config(None, {"gamma": 0}).mdp()
        cand = _candidates(mdp)
        margins, i, _ = _scalar_scan(mdp)
        assert i == -1 and (margins < 0.0).all()
        held_counts = _count_gaps(monkeypatch)
        assert ThresholdChain(mdp).last_hold(cand) == -1
        assert len(held_counts) == cand.size
        assert optimal_threshold(mdp) == 0.0

    def test_an_empty_search_holds_nothing(self, mdp):
        assert ThresholdChain(mdp).last_hold(np.array([])) == -1

    def test_at_gamma_one_minus_an_ulp_the_stable_effort_is_the_limit(self):
        # the forward pass loses the gap to cancellation here, so the scalar
        # scan over the closed form is the one reference
        mdp = load_config(None, {"gamma": 1 - 2.0**-53}).mdp()
        _, i, stable = _scalar_scan(mdp)
        assert ThresholdChain(mdp).last_hold(_candidates(mdp)) == i
        assert optimal_threshold(mdp).hex() == stable.hex()
        assert abs(stable - 0.497391) <= 1e-5

    def test_a_slice_boundary_changes_nothing(self, mdp, monkeypatch):
        cand = _candidates(mdp)
        whole = ThresholdChain(mdp).last_hold(cand)
        stable = optimal_threshold(mdp)
        monkeypatch.setattr(policy, "_SCAN_SLICE", 7)
        held_counts = _count_gaps(monkeypatch)
        assert ThresholdChain(mdp).last_hold(cand) == whole
        assert len(held_counts) == cand.size - whole  # the slices cut no work short
        assert optimal_threshold(mdp).hex() == stable.hex()
        for overrides in ({"state_min": 0.5}, {"gamma": 0}):
            other = load_config(None, overrides).mdp()
            i, stable = _scalar_scan(other)[1:]
            assert ThresholdChain(other).last_hold(_candidates(other)) == i
            assert optimal_threshold(other).hex() == stable.hex()

    def test_margins_change_sign_at_most_once(self):
        # 150 draws up to gamma 0.9999, then 60 at the patient edge, where
        # the held and backlash values grow like 1 / (1 - gamma) and only
        # the gap formed from (1 - gamma) V_B keeps its sign; the full scan
        # is the scalar margin at every candidate
        rng = np.random.default_rng(23)
        patient = (1 - 1e-9, 1 - 1e-12, 1 - 2.0**-53)
        for case in range(210):
            mdp = random_mdp(rng, (3, 40), (0.3, 0.9999))
            if case >= 150:
                mdp = dataclasses.replace(mdp, gamma=patient[case % 3])
            margins, i, _ = _scalar_scan(mdp)
            holds = margins >= 0.0
            changes = np.nonzero(holds[1:] != holds[:-1])[0]
            assert changes.size <= 1, f"case {case}: sign changes after candidates {changes}"
            assert ThresholdChain(mdp).last_hold(_candidates(mdp)) == i, case


class TestOverreactionGap:
    def test_canonical_backlash_is_too_weak(self, mdp, welfare):
        # the canonical ceiling cannot make the optimum stable, so the
        # platform under-complies relative to the social optimum
        gap = overreaction_gap(mdp, welfare)
        assert gap == pytest.approx(0.45075146484375 - E_STAR, abs=1e-4)
        assert gap < 0

    def test_weak_backlash_always_leaves_a_shortfall(self, harm, cost, welfare):
        space = build_state_space(0.0, 1.0, 6, 0.5)  # backlash below the optimum
        grid = build_action_grid(1.0, 1e-3, space.levels)
        m = RegulationMdp(space, grid, harm, cost, DriftModel.constant(0.3, 6), 0.9)
        assert overreaction_gap(m, welfare) < 0


class TestDesignBacklash:
    def test_round_trip_recovers_the_social_optimum(self, welfare, drift):
        template = build_state_space(0.0, 2.5, 11, 1.0)
        design = design_backlash(welfare, 0.9, template, drift, e_max=2.5)
        assert design.target_e_star == pytest.approx(E_STAR, abs=1e-9)
        assert design.designed_e_h > design.target_e_star
        assert abs(design.achieved_threshold - design.target_e_star) <= 2e-3
        assert not design.degenerate

    def test_a_nan_harm_slope_raises(self, welfare, drift):
        # the design came back with degenerate False and residual nan; the
        # target's welfare search now meets the NaN first
        template = build_state_space(0.0, 2.5, 11, 1.0)
        nan = dataclasses.replace(welfare, harm=NanSlope(welfare.harm, 0.3))
        with pytest.raises(RuntimeError, match=r"^marginal welfare at effort 2\.5 is NaN$"):
            design_backlash(nan, 0.9, template, drift, e_max=2.5)

    def test_canonical_ceiling_is_insufficient(self, welfare, drift, space):
        with pytest.raises(InsufficientMaxEffortError) as exc:
            design_backlash(welfare, 0.9, space, drift, e_max=1.0)
        err = exc.value
        assert err.k_constant == pytest.approx(K_CANONICAL, rel=1e-9)
        assert err.cost_at_max == pytest.approx(0.6, rel=1e-12)
        assert "K=9.25383" in str(err)
        assert "0.6" in str(err)

    def test_zero_damage_is_degenerate(self, harm, cost, drift, space):
        w0 = WelfareModel(harm, cost, 0.0)
        design = design_backlash(w0, 0.9, space, drift, e_max=1.0)
        assert design.degenerate
        assert design.target_e_star == 0.0
        assert design.designed_e_h == pytest.approx(0.901)
        assert np.isnan(design.residual)

    def test_zero_damage_with_a_low_template_holds_nothing(self, harm, cost):
        # when the fixed levels are themselves negligible, the weakest
        # backlash level really does induce zero over-compliance
        w0 = WelfareModel(harm, cost, 0.0)
        template = StateSpace(np.array([0.0, 0.02]))
        design = design_backlash(w0, 0.9, template, DriftModel.constant(0.3, 2))
        assert design.degenerate
        assert design.achieved_threshold == 0.0

    def test_rejects_myopic_gamma(self, welfare, drift, space):
        for gamma in (0.0, 1.0):
            with pytest.raises(DomainError):
                design_backlash(welfare, gamma, space, drift)

    @pytest.mark.parametrize("tol, error", [(0.1, DomainError), (1e-6, RuntimeError)])
    def test_a_missed_target_blames_only_a_coarse_tolerance(
        self, welfare, drift, monkeypatch, tol, error
    ):
        # force the re-solve off target: only a tolerance wider than the
        # action step is the caller's doing
        monkeypatch.setattr(thresholds, "optimal_threshold", lambda mdp: 0.5)
        template = build_state_space(0.0, 2.5, 11, 1.0)
        with pytest.raises(error) as exc:
            design_backlash(welfare, 0.9, template, drift, tol, e_max=2.5)
        assert ("refine_tol" in str(exc.value)) == (error is DomainError)

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_rejects_a_tolerance_that_is_not_positive(self, welfare, drift, tol):
        template = build_state_space(0.0, 2.5, 11, 1.0)
        with pytest.raises(DomainError, match="tol must be positive"):
            design_backlash(welfare, 0.9, template, drift, tol, e_max=2.5)

    def test_rejects_template_at_the_ceiling(self, welfare, drift):
        template = build_state_space(0.0, 1.0, 11, 1.0)
        with pytest.raises(ConstructionError):
            design_backlash(welfare, 0.9, template, drift, e_max=0.9)

    def test_a_template_above_the_target_is_refused_before_any_probe(
        self, welfare, drift, monkeypatch
    ):
        # every fixed level sits above e* = 0.628, so no state can hold it
        def no_probe(*args):
            raise AssertionError("a probe built its action grid")

        monkeypatch.setattr(thresholds, "build_action_grid", no_probe)
        template = build_state_space(0.65, 2.5, 11, 1.0)
        with pytest.raises(ConstructionError, match="fixed levels start at 0.65, above"):
            design_backlash(welfare, 0.9, template, drift, e_max=2.5)


# the canonical stable effort at gamma = 1, from the long-run average-cost margin
LIMIT = 0.497391113


class TestPatientPlatform:
    # near gamma = 1 the held and backlash values grow like 1 / (1 - gamma)
    # while the hold margin stays O(1)
    @pytest.mark.parametrize("gamma", [1 - 1e-12, 1 - 2.0**-53], ids=["1-1e-12", "1-2**-53"])
    def test_the_stable_effort_keeps_its_digits(self, gamma):
        assert optimal_threshold(load_config(None, {"gamma": gamma}).mdp()) == pytest.approx(
            LIMIT, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.9999, 1 - 1e-8, 1 - 1e-12, 1 - 2.0**-53],
                             ids=["0.9999", "1-1e-8", "1-1e-12", "1-2**-53"])
    def test_the_design_residual_is_a_per_period_margin(self, welfare, drift, gamma):
        template = build_state_space(0.0, 2.5, 11, 1.0)
        design = design_backlash(welfare, gamma, template, drift, e_max=2.5)
        assert abs(design.achieved_threshold - E_STAR) <= 2e-3
        assert abs(design.residual) <= 1e-6


class TestImpossibility:
    def test_canonical_two_cost_sweep(self, harm):
        report = impossibility_report(
            harm, 2.0, CostModel(0.5, 0.1), CostModel(0.2, 0.05), 0.9
        )
        assert report.e_star_1 == pytest.approx(E_STAR, abs=1e-9)
        assert report.e_star_2 == pytest.approx(E_STAR_2, abs=1e-9)
        assert not report.degenerate
        assert report.conclusion

    def test_rows_tabulate_compliance_and_losses(self, harm):
        report = impossibility_report(
            harm, 2.0, CostModel(0.5, 0.1), CostModel(0.2, 0.05), 0.9
        )
        rows = report.records()
        assert len(rows) == 1003  # 1001 uniform candidates plus both optima
        w1 = WelfareModel(harm, CostModel(0.5, 0.1), 2.0)
        w2 = WelfareModel(harm, CostModel(0.2, 0.05), 2.0)
        for row in rows:
            e_c = row["required_effort"]
            # the grid-wide arrays give each candidate's scalar evaluation, bit for bit
            assert row["gap_to_optimum_2"] == e_c - report.e_star_2
            assert row["welfare_loss_1"] == (
                w1.expected_welfare(report.e_star_1) - w1.expected_welfare(e_c)
            )
            assert row["welfare_loss_2"] == (
                w2.expected_welfare(report.e_star_2) - w2.expected_welfare(e_c)
            )
            assert row["induced_effort"] == e_c
            assert row["welfare_loss_1"] >= -1e-12
            assert row["welfare_loss_2"] >= -1e-12
            assert row["discounted_loss_1"] == pytest.approx(
                row["welfare_loss_1"] * 10.0, rel=1e-12, abs=1e-15
            )
            assert not row["attains_both"]
        at_opt_1 = min(rows, key=lambda r: abs(r["required_effort"] - E_STAR))
        assert at_opt_1["welfare_loss_1"] == pytest.approx(0.0, abs=1e-12)
        assert at_opt_1["gap_to_optimum_2"] == pytest.approx(E_STAR - E_STAR_2, abs=1e-9)

    def test_identical_costs_are_flagged_degenerate(self, harm, cost):
        report = impossibility_report(harm, 2.0, cost, cost, 0.9)
        assert report.degenerate
        assert not report.conclusion
        assert any(r["attains_both"] for r in report.records())

    def test_rejects_bad_gamma(self, harm, cost):
        with pytest.raises(DomainError):
            impossibility_report(harm, 2.0, cost, CostModel(0.2, 0.05), 1.0)
