"""Acceptance gate: every headline capability at its published scale.

Each test runs one randomized verification suite at full size and prints a
single PASS/FAIL line (visible with pytest -s or on failure). The suites run
against independent oracles: brute-force policy iteration, direct linear
algebra, central differences, grid search, and Monte Carlo sampling.
"""

import regmdp.verification as verification


def report(result):
    line = f"{'PASS' if result.ok else 'FAIL'} [{result.checks} checks] {result.name}"
    print(line)
    assert result.ok, "\n".join([line] + result.failures[:10])


def test_stable_threshold_policy_matches_brute_force_on_random_scenarios():
    # 20 random scenarios; every state's brute-force action within one
    # action-grid step of the threshold policy at the stable effort
    report(verification.threshold_matches_brute_force(n_scenarios=20, seed=101))


def test_states_below_any_threshold_share_one_value():
    # 21 thresholds per scenario; the held states' value spread stays within
    # evaluate_threshold_policy's own bound, 2(3n + 4) ulps / (1 - gamma)
    report(verification.states_below_threshold_share_value(n_scenarios=20, seed=101))


def test_backlash_state_is_never_strictly_better():
    # v(backlash) <= v(state) + 1e-9 for every state and threshold
    report(verification.backlash_state_is_worst(n_scenarios=20, seed=101))


def test_pairwise_effort_preferences_match_the_value_gap_rule():
    # 1000 effort pairs per scenario; whenever the algebraic margin clears
    # 1e-9 the directly computed action values must order the same way
    report(
        verification.effort_preference_signs_agree(
            n_scenarios=20, seed=101, n_triples=1000
        )
    )


def test_static_fines_never_push_effort_past_the_requirement():
    # 100 audit-probability/fine pairs with fines up to 1e9, both failure
    # families, every requirement level: induced effort never exceeds it
    report(
        verification.static_fines_never_exceed_requirement(n_pairs=100, seed=303)
    )


def test_backlash_design_round_trips_and_weak_levels_fall_short():
    # 10 feasible designs recover their target within two action steps,
    # and 10 scenarios with the backlash level at or below the optimum
    # leave a strictly negative effort gap
    report(verification.backlash_design_round_trip(n_designs=10, seed=404))
    report(verification.weak_backlash_leaves_a_shortfall(n_scenarios=10, seed=505))


def test_no_single_requirement_serves_two_cost_structures():
    report(verification.one_requirement_cannot_serve_two_costs())


def test_monte_carlo_matches_analytic_values():
    # 5 scenarios, 100000 episodes each; a case fails only when its estimate
    # misses the exact value by more than 4 standard errors beyond rounding
    # and the truncation bound (agreement_z)
    report(
        verification.monte_carlo_matches_analytic(
            n_scenarios=5, seed=701, n_episodes=100_000
        )
    )


def test_numeric_hygiene_of_derivatives_residuals_and_optima():
    # central differences within 1e-6 relative error on 1000 draws, Bellman
    # residuals within evaluate_policy's own bound of (3n + 4) ulps of the
    # value scale, root-found optima within 2e-4 of a fine grid
    report(verification.numeric_hygiene(n_points=1000, seed=808))
