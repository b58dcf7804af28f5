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
    """random_levels before its draws were bounded: the reference for every draw that ends."""
    if rng.random() < 0.5:
        return np.linspace(0.0, top, n)
    while True:
        interior = np.sort(rng.uniform(0.0, top, size=n - 2))
        levels = np.concatenate([[0.0], interior, [top]])
        if np.min(np.diff(levels)) > 1e-3:
            return levels


@pytest.mark.parametrize("n", [3, 11, 31, 45])
def test_random_levels_keeps_every_draw_that_ends(n):
    for seed in range(40):
        got = verification.random_levels(np.random.default_rng(seed), n, 0.8)
        want = unbounded_random_levels(np.random.default_rng(seed), n, 0.8)
        assert got.tobytes() == want.tobytes()


def test_random_levels_gives_up_where_no_draw_passes():
    # at 201 levels on [0, 0.6] no gap pattern passes in practice, and the
    # unbounded loop never ended; seed 0 takes the random branch
    with pytest.raises(DomainError, match=r"^no random grid of 201 levels from 0 to 0\.6 "
                                          r"with every gap above 0\.001 in 10,000 draws$"):
        verification.random_levels(np.random.default_rng(0), 201, 0.6)
