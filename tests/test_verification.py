"""Verification suites report a solver postcondition that fires as a failure.

Each fault below breaks one input of a solver so that the solver's own
postcondition raises; the suite that owns the invariant must end with a
failed check naming the case and quoting the solver, not with the error.
"""

import numpy as np
import pytest

import regmdp.policy as policy_module
import regmdp.thresholds as thresholds
import regmdp.verification as verification
from regmdp import InsufficientMaxEffortError
from regmdp.policy import ValueFunction


def _rising_utility(regime, cost, e, e_c):
    # more effort always pays, so the static argmax overshoots every requirement
    return np.asarray(e, dtype=float)


def _spread_held_states(real):
    def evaluate(mdp, policy):
        vf = real(mdp, policy)
        return ValueFunction(mdp.space, vf.values - np.arange(mdp.space.n_states))

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
        policy_module, "evaluate_policy", _spread_held_states,
        "case 0: tau", "states held at the threshold diverged",
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


def test_design_suite_reports_too_few_feasible_designs(monkeypatch):
    def never_feasible(*args, **kwargs):
        raise InsufficientMaxEffortError(1.0, 0.5)

    monkeypatch.setattr(verification, "design_backlash", never_feasible)
    result = verification.backlash_design_round_trip(n_designs=2, seed=404)
    assert result.checks == 1
    assert len(result.failures) == 1
    assert result.failures[0].startswith("only 0/2 feasible designs found in 300 attempts")
