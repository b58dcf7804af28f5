"""State space, action grid, policies, and transition structure."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from regmdp import (
    ActionGrid,
    ConstructionError,
    CostModel,
    DomainError,
    DriftModel,
    FeasibilityError,
    Policy,
    RegulationMdp,
    StateSpace,
    build_action_grid,
    build_state_space,
)
from regmdp.mdp import _nearest
from regmdp.verification import random_levels


class TestStateSpace:
    def test_build_uniform_levels(self, space):
        assert space.n_states == 11
        assert np.allclose(space.levels, np.linspace(0.0, 1.0, 11))
        assert space.backlash_index == 10
        assert space.backlash_level == 1.0

    def test_build_rejects_bad_shapes(self):
        with pytest.raises(ConstructionError):
            build_state_space(0.0, 1.0, 1, 1.0)
        with pytest.raises(ConstructionError):
            build_state_space(0.5, 1.0, 5, 0.5)  # min not below backlash
        with pytest.raises(ConstructionError):
            build_state_space(0.0, 1.0, 5, 1.5)  # backlash above the ceiling

    def test_rejects_unsorted_or_negative_levels(self):
        with pytest.raises(ConstructionError):
            StateSpace(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ConstructionError):
            StateSpace(np.array([-0.1, 0.5]))
        with pytest.raises(ConstructionError):
            StateSpace(np.array([0.3]))

    def test_index_of_matches_with_tolerance(self, space):
        assert space.index_of(0.5) == 5
        assert space.index_of(0.5 + 1e-12) == 5
        for refused in (0.55, np.float64(0.55)):
            with pytest.raises(DomainError, match=r"^0\.55 is not a state level$"):
                space.index_of(refused)
        with pytest.raises(DomainError):  # NaN is within 1e-9 of no level, not of the first
            space.index_of(np.nan)

    def test_levels_are_read_only(self, space):
        with pytest.raises(ValueError):
            space.levels[0] = 0.7


class TestActionGrid:
    def test_uniform_grid(self):
        grid = build_action_grid(1.0, 1e-3)
        assert grid.efforts.size == 1001
        assert grid.efforts[0] == 0.0
        assert grid.e_max == 1.0
        assert np.allclose(np.diff(grid.efforts), 1e-3)

    def test_appends_ceiling_when_step_misses_it(self):
        grid = build_action_grid(0.9995, 1e-3)
        assert grid.e_max == 0.9995
        assert grid.efforts[-2] == pytest.approx(0.999)

    def test_levels_become_exact_members(self, space):
        grid = build_action_grid(1.0, 1e-3, space.levels)
        for lv in space.levels:
            assert grid.require_member(float(lv)) == float(lv)
        assert np.all(np.diff(grid.efforts) > 0)

    def test_merges_offgrid_levels(self):
        grid = build_action_grid(1.0, 1e-3, (0.12345,))
        assert grid.require_member(0.12345) == 0.12345
        assert grid.efforts.size == 1002  # nothing collided, so one extra point

    def test_rejects_levels_beyond_ceiling(self):
        with pytest.raises(ConstructionError):
            build_action_grid(1.0, 1e-3, (1.2,))

    def test_rejects_nan_levels(self):
        with pytest.raises(ConstructionError, match="must be numbers"):
            build_action_grid(1.0, 0.25, [0.5, float("nan")])

    def test_rejects_malformed_grids(self):
        with pytest.raises(ConstructionError):
            ActionGrid(np.array([0.1, 0.5]))  # must start at zero
        with pytest.raises(ConstructionError):
            ActionGrid(np.array([0.0]))
        # each passes the strict-increase check, and [0, 0.5, nan] would give e_max nan
        for bad in ([0.0, 0.5, np.nan], [0.0, np.nan, 1.0], [0.0, 0.5, np.inf]):
            with pytest.raises(ConstructionError, match="finite"):
                ActionGrid(np.array(bad))

    @pytest.mark.parametrize("efforts", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5]],
                             ids=["repeat", "decrease"])
    def test_rejects_efforts_that_do_not_increase(self, efforts):
        with pytest.raises(ConstructionError, match="strictly increasing"):
            ActionGrid(np.array(efforts))

    @pytest.mark.parametrize("e_max", [0.0, -1.0, np.nan])
    def test_rejects_a_non_positive_ceiling(self, e_max):
        with pytest.raises(ConstructionError, match="e_max must be positive"):
            build_action_grid(e_max, 0.1)

    def test_rejects_a_non_positive_step(self):
        with pytest.raises(ConstructionError, match="step must be positive"):
            build_action_grid(0.5, 0.0)

    def test_require_member_rejects_offgrid(self):
        grid = build_action_grid(1.0, 1e-3)
        with pytest.raises(DomainError):
            grid.require_member(0.00051)
        with pytest.raises(DomainError):
            grid.require_member(np.nan)


def merged_by_loop(e_max, step, levels):
    """build_action_grid's merge one level at a time, the reference for its one-pass merge."""
    base = build_action_grid(e_max, step).efforts
    lv = np.asarray(levels, dtype=float)
    keep = np.ones(base.size, dtype=bool)
    for x in lv:
        keep &= np.abs(base - x) > 1e-12
    return np.sort(np.concatenate([base[keep], lv]))


def require_members_by_loop(actions, levels):
    """RegulationMdp's grid-membership check one level at a time, its reference."""
    for lv in levels:
        actions.require_member(float(lv))


# uniform levels, random levels, and levels from 0.3 with one 5e-13 off a grid point
LEVEL_KINDS = {
    "uniform": np.linspace(0.0, 0.85, 11),
    "random": random_levels(np.random.default_rng(0), 31, 0.9),
    "state_min 0.3, near a grid point": np.array([0.3, 0.41, 0.5 + 5e-13, 0.77, 1.0]),
}


class TestOnePassConstruction:
    @pytest.mark.parametrize("kind", list(LEVEL_KINDS))
    def test_merged_grid_matches_the_per_level_loop(self, kind):
        levels = LEVEL_KINDS[kind]
        for step in (1e-3, 0.07):
            grid = build_action_grid(1.0, step, levels).efforts
            assert grid.tobytes() == merged_by_loop(1.0, step, levels).tobytes()

    @pytest.mark.parametrize("kind", list(LEVEL_KINDS))
    @pytest.mark.parametrize("shift", [0.0, 5e-10, 2e-9])
    def test_membership_check_matches_the_per_level_loop(self, kind, shift, harm, cost):
        # levels against a grid that did not merge them: within 1e-9 of a
        # grid point passes, and the first level further off is the one named
        levels = LEVEL_KINDS[kind] + shift
        actions = build_action_grid(1.1, 1e-3)
        drift = DriftModel.constant(0.3, levels.size)
        try:
            require_members_by_loop(actions, levels)
        except DomainError as err:
            with pytest.raises(DomainError) as raised:
                RegulationMdp(StateSpace(levels), actions, harm, cost, drift, 0.9)
            assert str(raised.value) == str(err)
        else:
            RegulationMdp(StateSpace(levels), actions, harm, cost, drift, 0.9)


def argmin_lookup(values, x):
    """The O(n) lookup the sorted search replaced: argmin's first minimum of |v - x|."""
    i = int(np.argmin(np.abs(values - x)))
    return i, abs(values[i] - x)


class TestNearest:
    """`_nearest` against argmin over the 10**6-step action grid."""

    @pytest.fixture(scope="class")
    def fine(self):
        return build_action_grid(1.0, 1e-6).efforts

    @pytest.fixture(scope="class")
    def probes(self, fine):
        rng = np.random.default_rng(25)
        on = fine[rng.integers(0, fine.size, 2000)]
        k = rng.integers(0, fine.size - 1, 3000)
        on2 = np.concatenate([on, on])
        edges = np.concatenate([on + 1e-9, on - 1e-9])
        return np.concatenate([
            rng.uniform(-1e-6, 1.0 + 1e-6, 3000),
            on,
            (fine[k] + fine[k + 1]) / 2,  # midpoints, some of them exact ties
            edges,  # a distance of about 1e-9, on either side of the tolerance
            np.nextafter(edges, on2),
            np.nextafter(edges, 2 * edges - on2),
            [0.0, -0.0, 1.0, -1e-9, 1.0 + 1e-9, 0.5e-6, 1.5e-6],
        ])

    def test_matches_argmin_over_the_whole_grid(self, fine, probes):
        # a full argmin costs milliseconds a probe, so it runs on a sample and
        # on the non-finite probes, where the window below cannot be placed
        x = np.concatenate([probes[::100], [np.nan, np.inf, -np.inf]])
        i, distance = _nearest(fine, x)
        for probe, got_i, got_d in zip(x, i, distance):
            ref_i, ref_d = argmin_lookup(fine, probe)
            assert got_i == ref_i or not np.isfinite(probe), probe  # refused either way
            assert got_d.tobytes() == ref_d.tobytes(), probe

    def test_matches_argmin_at_every_probe(self, fine, probes):
        # the nearest point lies within two steps of x / step, and every point
        # outside a 50-step window is dozens of steps further off, so argmin
        # over the window is argmin over the grid
        assert probes.size >= 10**4
        i, distance = _nearest(fine, probes)
        centre = np.clip(np.rint(probes / 1e-6).astype(int), 0, fine.size - 1)
        for probe, c, got_i, got_d in zip(probes, centre, i, distance):
            start = max(c - 50, 0)
            ref_i, ref_d = argmin_lookup(fine[start:c + 50], probe)
            assert (got_i, got_d) == (start + ref_i, ref_d), probe
            assert _nearest(fine, float(probe)) == (got_i, got_d)

    def test_require_member_takes_exactly_what_lies_within_1e9(self, fine, probes):
        grid = ActionGrid(fine)
        nearest, distance = _nearest(fine, probes)
        accepted = distance <= 1e-9
        assert 0 < accepted.sum() < probes.size
        for probe, ok, i in zip(probes, accepted, nearest):
            if ok:
                assert grid.require_member(probe) == fine[i]
            else:  # probe is a NumPy scalar; the message prints it as a plain float
                with pytest.raises(DomainError, match=(
                    f"^effort {re.escape(repr(float(probe)))} is not on the action grid$"
                )):
                    grid.require_member(probe)
        for bad in (np.nan, np.inf, -np.inf):
            for refused in (bad, np.float64(bad)):
                with pytest.raises(DomainError, match=f"^effort {bad!r} is not on the action"):
                    grid.require_member(refused)

    def test_a_tie_goes_to_the_lower_value(self):
        values = np.arange(9) * 0.25  # exact, so every midpoint is an exact tie
        midpoints = values[:-1] + 0.125
        i, distance = _nearest(values, midpoints)
        assert i.tolist() == list(range(8))
        assert np.all(distance == 0.125)
        assert [argmin_lookup(values, m)[0] for m in midpoints] == list(range(8))


class TestPolicy:
    def test_comply_plays_the_requirement(self, space):
        pol = Policy.comply(space)
        assert np.array_equal(pol.efforts, space.levels)
        assert pol.efforts[3] == pytest.approx(0.3)

    def test_threshold_plays_the_max(self, space):
        pol = Policy.threshold(space, 0.45)
        assert np.allclose(pol.efforts, np.maximum(space.levels, 0.45))

    def test_threshold_rejects_negative(self, space):
        with pytest.raises(DomainError):
            Policy.threshold(space, -0.2)

    def test_infeasible_policy_names_the_state(self, space):
        efforts = space.levels.copy()
        efforts[3] = 0.1  # below the 0.3 requirement
        with pytest.raises(FeasibilityError, match="state 0.3"):
            Policy(space, efforts)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf], ids=["nan", "negative", "inf"])
    def test_rejects_an_effort_that_is_not_a_finite_non_negative_number(self, space, bad):
        # a NaN would pass the requirement check, a negative effort would
        # fail it with a message about shirking instead
        efforts = space.levels.copy()
        efforts[0] = bad
        with pytest.raises(ConstructionError, match="finite and non-negative"):
            Policy(space, efforts)

    def test_shape_mismatch(self, space):
        with pytest.raises(ConstructionError):
            Policy(space, np.zeros(4))


class TestRegulationMdp:
    def test_rejects_bad_gamma(self, space, actions, harm, cost, drift):
        for gamma in (1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                RegulationMdp(space, actions, harm, cost, drift, gamma)

    def test_accepts_myopic_gamma(self, space, actions, harm, cost, drift):
        assert RegulationMdp(space, actions, harm, cost, drift, 0.0).gamma == 0.0

    def test_rejects_drift_length_mismatch(self, space, actions, harm, cost):
        with pytest.raises(ConstructionError):
            RegulationMdp(space, actions, harm, cost, DriftModel.constant(0.3, 7), 0.9)

    def test_rejects_grid_missing_a_level(self, space, harm, cost, drift):
        grid = ActionGrid(np.array([0.0, 1.0]))  # reaches the top but skips levels
        with pytest.raises(DomainError):
            RegulationMdp(space, grid, harm, cost, drift, 0.9)

    def test_names_the_first_level_off_the_grid(self, harm, cost):
        space = StateSpace([0.0, 0.25, 0.3333, 0.5, 0.6666, 1.0])
        with pytest.raises(DomainError, match=r"^effort 0\.3333 is not on the action grid$"):
            RegulationMdp(space, build_action_grid(1.0, 0.05), harm, cost,
                          DriftModel.constant(0.3, 6), 0.9)

    @pytest.mark.parametrize("a, b, gamma", [
        (1e308, 0.1, 0.9999),  # c(1) is finite, its slope and discounted sum are not
        (1e308, 0.1, 0.0),  # only the slope overflows
        (1e307, 0.1, 0.9999),  # only c(1) / (1 - gamma) overflows
        (1e308, 1e308, 0.0),  # c(1) itself overflows
    ])
    def test_rejects_a_cost_that_overflows(self, space, actions, harm, drift, a, b, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstructionError, match=r"c\(e_max\) / \(1 - gamma\) finite"):
                RegulationMdp(space, actions, harm, CostModel(a, b), drift, gamma)

    def test_keeps_the_cost_ceiling_through_replace(self, mdp, cost):
        assert mdp.cost_ceiling == cost.value(1.0)
        steep = dataclasses.replace(mdp, cost=CostModel(2.0, 0.5))
        assert steep.cost_ceiling == 2.5
        with pytest.raises(ConstructionError, match=r"c\(e_max\) / \(1 - gamma\) finite"):
            dataclasses.replace(mdp, cost=CostModel(1e307, 0.1), gamma=0.9999)

    def test_rejects_grid_below_backlash(self, space, harm, cost, drift):
        grid = build_action_grid(0.5, 1e-3)
        with pytest.raises(ConstructionError):
            RegulationMdp(space, grid, harm, cost, drift, 0.9)


class TestTransitions:
    def test_interior_state_three_outcomes(self, mdp, harm):
        pairs = mdp.transition_distribution(0.5, 0.7)
        h = harm.prob(0.7)
        expected = [(0.4, (1 - h) * 0.3), (0.5, (1 - h) * 0.7), (1.0, h)]
        assert len(pairs) == 3
        for (lv, p), (lv_e, p_e) in zip(pairs, expected):
            assert lv == pytest.approx(lv_e)
            assert p == pytest.approx(p_e, rel=1e-14)
        assert sum(p for _, p in pairs) == pytest.approx(1.0, abs=1e-12)

    def test_bottom_state_cannot_drift(self, mdp, harm):
        pairs = mdp.transition_distribution(0.0, 0.0)
        assert pairs == [
            (0.0, pytest.approx(1 - harm.prob(0.0))),
            (1.0, pytest.approx(harm.prob(0.0))),
        ]

    def test_backlash_state_merges_harm_and_stay(self, mdp, harm):
        pairs = mdp.transition_distribution(1.0, 1.0)
        h = harm.prob(1.0)
        assert len(pairs) == 2  # harm and staying put coincide at the top
        assert pairs[0] == (pytest.approx(0.9), pytest.approx((1 - h) * 0.3))
        assert pairs[1] == (pytest.approx(1.0), pytest.approx(h + (1 - h) * 0.7))

    def test_rejects_shirking(self, mdp):
        with pytest.raises(FeasibilityError):
            mdp.transition_distribution(0.5, 0.3)

    def test_rejects_offgrid_effort(self, mdp):
        with pytest.raises(DomainError):
            mdp.transition_distribution(0.5, 0.70001)

    def test_matrix_rows_are_distributions(self, mdp, space):
        for efforts in (space.levels, np.maximum(space.levels, 0.45)):
            p = mdp.transition_matrix(efforts)
            assert p.shape == (11, 11)
            assert np.all(p >= 0)
            assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_matrix_agrees_with_distribution(self, mdp, space):
        efforts = np.maximum(space.levels, 0.45)
        p = mdp.transition_matrix(efforts)
        for i, lv in enumerate(space.levels):
            pairs = dict(mdp.transition_distribution(float(lv), float(efforts[i])))
            for j, target in enumerate(space.levels):
                assert p[i, j] == pytest.approx(pairs.get(float(target), 0.0), abs=1e-15)
