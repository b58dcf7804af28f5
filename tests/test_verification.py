"""Verification suites report a breached postcondition as a failure.

Each fault below breaks one input of a solver so that the solver's own
postcondition raises, or, for the held-state spread that the suite checks
itself, the dense values the suite reads; the suite that owns the invariant
must end with a failed check naming the case and quoting the check, not with
the error.
"""

import numpy as np
import pytest

import regmdp.policy as policy_module
import regmdp.thresholds as thresholds
import regmdp.verification as verification
from regmdp import DomainError, InsufficientMaxEffortError
from regmdp.policy import ValueFunction


def _rising_utility(regime, cost, e, e_c):
    # more effort always pays, so the static argmax overshoots every requirement
    return np.asarray(e, dtype=float)


def _spread_held_states(real):
    # only the states that play the threshold move, each by its own amount
    def evaluate(mdp, policy):
        vf = real(mdp, policy)
        held = policy.efforts == policy.efforts[0]
        return ValueFunction(mdp.space, vf.values - np.arange(mdp.space.n_states) * held)

    return evaluate


def _shift_structured_values(real):
    # the held states still share one value, but not the dense solve's
    def evaluate(mdp, tau):
        return ValueFunction(mdp.space, real(mdp, tau).values - 1e-6)

    return evaluate


FAULTS = {
    "static cap": (
        lambda: verification.static_fines_never_exceed_requirement(n_pairs=2, seed=303),
        thresholds, "static_expected_utility", lambda real: _rising_utility,
        "case 0", "above the requirement",
    ),
    "design round trip": (
        lambda: verification.backlash_design_round_trip(n_designs=1, seed=404),
        thresholds, "optimal_threshold",
        lambda real: lambda mdp, refine_tol=1e-6: float(mdp.space.backlash_level),
        "design 1", "off the target",
    ),
    "weak backlash shortfall": (
        lambda: verification.weak_backlash_leaves_a_shortfall(n_scenarios=2, seed=505),
        thresholds, "optimal_threshold",
        lambda real: lambda mdp, refine_tol=1e-6: float(mdp.actions.e_max),
        "scenario 1", "non-negative gap",
    ),
    "Bellman residual": (
        lambda: verification.numeric_hygiene(n_points=10, seed=808),
        policy_module, "_residual_bound", lambda real: lambda mdp, scale: -1.0,
        "evaluation 0", "Bellman residual",
    ),
    "held-state spread": (
        lambda: verification.states_below_threshold_share_value(n_scenarios=1, seed=101),
        verification, "evaluate_policy", _spread_held_states,
        "case 0: tau", "states held at the threshold diverged",
    ),
    "structured values off the dense solve": (
        lambda: verification.states_below_threshold_share_value(n_scenarios=1, seed=101),
        verification, "evaluate_threshold_policy", _shift_structured_values,
        "case 0: tau 0:", "dense and structured values differ",
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_a_breached_postcondition_is_the_suites_failure(fault, monkeypatch):
    suite, module, name, make_fake, label, message = FAULTS[fault]
    monkeypatch.setattr(module, name, make_fake(getattr(module, name)))
    result = suite()
    assert not result.ok
    assert len(result.failures) <= result.checks
    first = result.failures[0]
    assert first.startswith(label + ":") or first.startswith(label + " ")
    assert message in first


def test_design_suite_skips_draws_the_ceiling_cannot_bracket(monkeypatch):
    real = verification.design_backlash
    calls, designs = [], []

    def every_other_draw_infeasible(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2:
            raise InsufficientMaxEffortError(1.0, 0.5)
        designs.append(real(*args, **kwargs))  # the real design may be infeasible too
        return designs[-1]

    monkeypatch.setattr(verification, "design_backlash", every_other_draw_infeasible)
    result = verification.backlash_design_round_trip(n_designs=2, seed=404)
    assert result.ok, result.failures
    assert len(designs) == 2
    assert result.checks == 2 < len(calls)


def test_monte_carlo_suite_fails_a_nan_agreement(monkeypatch):
    # agreement_z reads NaN when the estimate or the exact value is NaN;
    # a gate written as |z| > 4 let that through
    monkeypatch.setattr(verification, "agreement_z", lambda est, exact: float("nan"))
    result = verification.monte_carlo_matches_analytic(n_scenarios=1, n_episodes=100)
    assert result.checks == 1
    assert len(result.failures) == 1
    assert result.failures[0].startswith("case 0: ")
    assert result.failures[0].endswith("is nan standard errors off")


def test_design_suite_reports_too_few_feasible_designs(monkeypatch):
    def never_feasible(*args, **kwargs):
        raise InsufficientMaxEffortError(1.0, 0.5)

    monkeypatch.setattr(verification, "design_backlash", never_feasible)
    result = verification.backlash_design_round_trip(n_designs=2, seed=404)
    assert result.checks == 1
    assert len(result.failures) == 1
    assert result.failures[0].startswith("only 0/2 feasible designs found in 300 attempts")


def unbounded_random_levels(rng, n, top):
    """The rejection sampler random_levels replaced: the reference for its law."""
    if rng.random() < 0.5:
        return np.linspace(0.0, top, n)
    while True:
        interior = np.sort(rng.uniform(0.0, top, size=n - 2))
        levels = np.concatenate([[0.0], interior, [top]])
        if np.min(np.diff(levels)) > 1e-3:
            return levels


def _ks_distance(a, b):
    """The largest gap between the empirical distribution functions of two samples."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return float(np.max(np.abs(
        np.searchsorted(a, x, side="right") / a.size - np.searchsorted(b, x, side="right") / b.size
    )))


@pytest.mark.parametrize("n", [3, 11, 31])
def test_random_levels_draws_the_law_of_the_rejection_sampler(n):
    # two-sample Kolmogorov-Smirnov at alpha 1e-3 on three statistics of
    # 4,000 random (not uniform) grids per sampler
    top, size = 0.8, 4000
    uniform = np.linspace(0.0, top, n).tobytes()

    def random_grids(sampler, seed):
        rng = np.random.default_rng(seed)
        grids = []
        while len(grids) < size:
            g = sampler(rng, n, top)
            if g.tobytes() != uniform:
                grids.append(g)
        return np.array(grids)

    new = random_grids(verification.random_levels, 1)
    old = random_grids(unbounded_random_levels, 2)
    bound = np.sqrt(-np.log(1e-3 / 2) * 2 / size)
    statistics = {
        "first level": lambda g: g[:, 1],
        "middle level": lambda g: g[:, n // 2],
        "smallest gap": lambda g: np.diff(g, axis=1).min(axis=1),
    }
    for name, stat in statistics.items():
        assert _ks_distance(stat(new), stat(old)) <= bound, name


@pytest.mark.parametrize("n, top", [(101, 0.6), (201, 0.6), (600, 0.9), (600, 0.6)])
def test_random_levels_draws_every_grid_whose_gaps_fit(n, top):
    # the rejection sampler passed no draw in 20,000 at 101 levels; 600 levels
    # on [0, 0.6] leave 0.001 to spread over the 599 gaps
    drawn_at_random = 0
    for seed in range(20):
        levels = verification.random_levels(np.random.default_rng(seed), n, top)
        assert levels.size == n and levels[0] == 0.0 and levels[-1] == top
        assert np.min(np.diff(levels)) > verification._LEVEL_GAP - 4 * np.spacing(top)
        drawn_at_random += levels.tobytes() != np.linspace(0.0, top, n).tobytes()
    assert drawn_at_random


@pytest.mark.parametrize("n, top", [(601, 0.6), (700, 0.6), (2, 1e-3)])
def test_random_levels_refuses_a_grid_whose_gaps_cannot_fit(n, top):
    # (n - 1) * 0.001 >= top, whichever branch the seed would take
    for seed in range(4):
        with pytest.raises(DomainError, match=rf"^no grid of {n} levels from 0 to {top!r} "
                                              r"has every gap above 0\.001$"):
            verification.random_levels(np.random.default_rng(seed), n, top)
