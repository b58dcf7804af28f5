"""Model primitives: harm and cost curves, drift, welfare, and the optimum.

Reference values were frozen from a 50-digit computation of the same
closed forms; the tests only trust that independent arithmetic.
"""

import dataclasses
import re

import numpy as np
import pytest

from regmdp import (
    ConstructionError,
    CostModel,
    DomainError,
    DriftModel,
    HarmModel,
    WelfareModel,
    socially_optimal_effort,
)

H_AT_HALF = 0.27850412811874387
H_SLOPE_AT_HALF = -0.5355123843562316
EW_AT_HALF = -0.7320082562374877
E_STAR = 0.6284733737717892

FD_DELTA = float(np.cbrt(np.finfo(float).eps))


def central_difference(f, x, delta=FD_DELTA):
    return (f(x + delta) - f(x - delta)) / (2.0 * delta)


class TestHarmModel:
    def test_frozen_reference_values(self, harm):
        assert harm.prob(0.5) == pytest.approx(H_AT_HALF, rel=1e-14)
        assert harm.derivative(0.5) == pytest.approx(H_SLOPE_AT_HALF, rel=1e-13)
        assert harm.prob(0.0) == pytest.approx(0.9, rel=1e-15)

    def test_bounds_and_monotonicity(self, harm):
        e = np.linspace(0.0, 5.0, 200)
        p = harm.prob(e)
        assert np.all(p > 0.1) and np.all(p <= 0.9)
        assert np.all(np.diff(p) < 0)
        # convex: second differences non-negative
        assert np.all(np.diff(p, 2) >= -1e-15)

    def test_derivative_matches_central_difference(self, harm):
        for e in np.linspace(0.05, 2.0, 23):
            fd = central_difference(harm.prob, e)
            assert harm.derivative(e) == pytest.approx(fd, rel=1e-7)

    def test_scalar_in_scalar_out_array_in_array_out(self, harm):
        assert isinstance(harm.prob(0.3), float)
        out = harm.prob(np.array([0.0, 0.5, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConstructionError):
            HarmModel(0.0, 0.9, 3.0)
        with pytest.raises(ConstructionError):
            HarmModel(1.0, 0.9, 3.0)
        with pytest.raises(ConstructionError):
            HarmModel(0.5, 0.4, 3.0)
        with pytest.raises(ConstructionError):
            HarmModel(0.1, 1.1, 3.0)
        with pytest.raises(ConstructionError):
            HarmModel(0.1, 0.9, 0.0)
        with pytest.raises(ConstructionError, match="finite"):  # its prob() would be NaN at 0
            HarmModel(0.1, 0.9, np.inf)
        with pytest.raises(ConstructionError, match="finite"):  # no float holds it
            HarmModel(0.1, 0.9, 10**400)

    def test_rejects_bad_effort(self, harm):
        with pytest.raises(DomainError):
            harm.prob(-0.1)
        with pytest.raises(DomainError):
            harm.prob(np.nan)
        with pytest.raises(DomainError):
            harm.derivative(np.array([0.2, -0.3]))

    def test_immutable(self, harm):
        with pytest.raises(dataclasses.FrozenInstanceError):
            harm.k = 2.0


class TestCostModel:
    def test_values(self, cost):
        assert cost.value(0.0) == 0.0
        assert cost.value(0.5) == pytest.approx(0.175, rel=1e-15)
        assert cost.value(1.0) == pytest.approx(0.6, rel=1e-15)
        assert cost.derivative(0.5) == pytest.approx(0.6, rel=1e-15)

    def test_strictly_increasing_and_convex(self, cost):
        e = np.linspace(0.0, 2.0, 101)
        c = cost.value(e)
        assert np.all(np.diff(c) > 0)
        assert np.all(np.diff(c, 2) > 0)

    def test_derivative_matches_central_difference(self, cost):
        for e in np.linspace(0.05, 2.0, 23):
            fd = central_difference(cost.value, e)
            assert cost.derivative(e) == pytest.approx(fd, rel=1e-7)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConstructionError):
            CostModel(0.0, 0.1)
        with pytest.raises(ConstructionError):
            CostModel(0.5, 0.0)
        with pytest.raises(ConstructionError):
            CostModel(-0.5, 0.1)
        with pytest.raises(ConstructionError, match="finite"):
            CostModel(np.inf, 0.1)
        with pytest.raises(ConstructionError, match="finite"):
            CostModel(0.5, np.inf)
        with pytest.raises(ConstructionError, match="finite"):
            CostModel(10**400, 0.1)
        with pytest.raises(ConstructionError, match="finite"):
            CostModel(0.5, 10**400)

    def test_rejects_negative_effort(self, cost):
        with pytest.raises(DomainError):
            cost.value(-1.0)


BAD_EFFORTS = [np.nan, np.inf, -np.inf, -1.0, -1e-300]
FORMS = {
    "float": lambda x: x,
    "0-d array": lambda x: np.array(x),
    "list": lambda x: [0.5, x],
    "array": lambda x: np.array([0.5, x]),
}


class TestEffortChecks:
    """Every model method rejects the same efforts, whatever shape they come in."""

    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("bad", BAD_EFFORTS)
    def test_rejects_nan_infinite_and_negative_effort(self, harm, cost, welfare, form, bad):
        e = FORMS[form](bad)
        message = re.escape(f"effort must be finite and non-negative, got {e!r}")
        for method in (harm.prob, harm.derivative, cost.value, cost.derivative,
                       welfare.expected_welfare, welfare.marginal_welfare):
            with pytest.raises(DomainError, match=message):
                method(e)

    @pytest.mark.parametrize("form", list(FORMS))
    def test_accepts_zero_effort_in_every_form(self, harm, cost, form):
        e = FORMS[form](0.0)
        assert np.all(np.asarray(harm.prob(e)) == np.asarray(harm.prob(np.asarray(e))))
        assert np.asarray(cost.value(e)).shape == np.shape(e)
        assert cost.value(-0.0) == 0.0

    def test_an_empty_array_passes_as_before(self, harm, cost):
        for e in (np.array([]), []):
            assert harm.prob(e).shape == (0,)
            assert cost.value(e).shape == (0,)

    def test_a_numpy_scalar_takes_the_float_path(self, harm):
        assert harm.prob(np.float64(0.5)) == harm.prob(0.5) == harm.prob(np.array(0.5))
        assert isinstance(harm.prob(np.float64(0.5)), float)
        with pytest.raises(DomainError, match=re.escape(f"got {np.float64(np.nan)!r}")):
            harm.prob(np.float64(np.nan))


class TestDriftModel:
    def test_constant_pins_the_lowest_state(self):
        d = DriftModel.constant(0.3, 11)
        assert len(d) == 11
        assert d.prob(0) == 0.0
        assert d.prob(5) == 0.3

    def test_rejects_mobile_lowest_state(self):
        with pytest.raises(ConstructionError):
            DriftModel(np.array([0.1, 0.3]))

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(ConstructionError):
            DriftModel(np.array([0.0, 1.5]))
        with pytest.raises(ConstructionError):
            DriftModel(np.array([0.0, -0.2]))
        with pytest.raises(ConstructionError):
            DriftModel(np.array([0.0, np.nan]))

    def test_probs_are_read_only(self):
        d = DriftModel.constant(0.3, 5)
        with pytest.raises(ValueError):
            d.probs[1] = 0.9


class TestWelfareModel:
    def test_frozen_reference_value(self, welfare):
        assert welfare.expected_welfare(0.5) == pytest.approx(EW_AT_HALF, rel=1e-13)

    def test_welfare_is_harm_damage_plus_cost(self, welfare, harm, cost):
        e = np.linspace(0.0, 1.0, 41)
        direct = -(harm.prob(e) * 2.0) - cost.value(e)
        assert np.allclose(welfare.expected_welfare(e), direct, rtol=0, atol=1e-15)

    def test_marginal_matches_central_difference(self, welfare):
        for e in np.linspace(0.05, 0.95, 19):
            fd = central_difference(welfare.expected_welfare, e)
            assert welfare.marginal_welfare(e) == pytest.approx(fd, rel=1e-6)

    def test_strictly_concave(self, welfare):
        e = np.linspace(0.0, 1.0, 101)
        assert np.all(np.diff(welfare.expected_welfare(e), 2) < 0)

    def test_rejects_negative_damage(self, harm, cost):
        with pytest.raises(ConstructionError):
            WelfareModel(harm, cost, -1.0)
        with pytest.raises(ConstructionError, match="finite"):
            WelfareModel(harm, cost, np.inf)
        with pytest.raises(ConstructionError, match="finite"):
            WelfareModel(harm, cost, 10**400)


class TestSociallyOptimalEffort:
    def test_canonical_interior_optimum(self, welfare):
        e = socially_optimal_effort(welfare)
        assert e == pytest.approx(E_STAR, abs=1e-9)
        assert welfare.marginal_welfare(e) == pytest.approx(0.0, abs=1e-8)

    def test_default_tolerance_is_met(self, welfare):
        assert socially_optimal_effort(welfare) == pytest.approx(E_STAR, abs=1e-6)

    def test_optimum_maximizes_on_a_fine_grid(self, welfare):
        e = socially_optimal_effort(welfare)
        grid = np.linspace(0.0, 1.0, 100001)
        best = grid[int(np.argmax(welfare.expected_welfare(grid)))]
        assert abs(e - best) <= 2e-5

    def test_zero_damage_means_zero_effort(self, harm, cost):
        assert socially_optimal_effort(WelfareModel(harm, cost, 0.0)) == 0.0

    def test_prohibitive_cost_means_zero_effort(self, harm):
        # marginal harm reduction at zero is 2.4 * damage = 4.8 < b
        w = WelfareModel(harm, CostModel(0.5, 5.0), 2.0)
        assert socially_optimal_effort(w) == 0.0

    def test_huge_damage_pins_the_ceiling(self, harm, cost):
        w = WelfareModel(harm, cost, 100.0)
        assert socially_optimal_effort(w) == 1.0

    def test_rejects_bad_tolerances(self, welfare):
        with pytest.raises(DomainError):
            socially_optimal_effort(welfare, e_max=0.0)
