"""Randomized property suites validating the solver against independent oracles.

Each suite draws scenarios from a seeded generator, checks one behavioral
guarantee, and reports a SuiteResult with per-failure detail. The CLI `verify`
subcommand runs them with configurable counts; the acceptance tests run them
at their full published sizes. A solver's own postcondition is the one check
of its invariant (the static cap, the design round trip, the weak-backlash
shortfall, the Bellman residual): a suite calls the solver inside
`_solver_case`, which turns the RuntimeError of a breach into the case's
failure. The held-state spread is the suite's own check: it compares the
dense solve with the structured threshold values.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientMaxEffortError
from .mdp import Policy, RegulationMdp, StateSpace, build_action_grid
from .policy import (
    _residual_bound,
    evaluate_policy,
    evaluate_threshold_policy,
    q_value,
    value_iteration,
)
from .primitives import (
    CostModel,
    DriftModel,
    HarmModel,
    WelfareModel,
    socially_optimal_effort,
)
from .simulate import agreement_z, estimate_value
from .thresholds import (
    RampAuditFailure,
    StaticRegime,
    StepAuditFailure,
    design_backlash,
    impossibility_report,
    optimal_threshold,
    overreaction_gap,
    static_optimal_effort,
)

_ACTION_STEP = 1e-3  # action-grid step of every generated scenario
_E_MAX = 1.0  # effort ceiling of the generated MDPs
_DESIGN_E_MAX = 2.5  # effort ceiling of the backlash design round trip
_N_TAUS = 21  # evenly spaced thresholds per scenario, from 0 to the backlash level
_VALUE_TOL = 1e-9  # value gap that counts as a violation of a value ordering
_MARGIN_TOL = 1e-9  # preference margin too small for its sign to be checked
_MAX_FINE = 1e9  # largest fine the static sweep draws
_MAX_ATTEMPTS = 300  # scenario draws the design round trip may spend
_REL_TOL = 1e-6  # relative error allowed between a derivative and its central difference
_LEVEL_GAP = 1e-3  # smallest gap between two levels of a random grid


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        line = f"{status} {self.name}: {self.checks - len(self.failures)}/{self.checks} checks"
        if self.failures:
            line += " | first failure: " + self.failures[0]
        return line


@contextmanager
def _solver_case(out: SuiteResult, label: str):
    """Record a RuntimeError raised in this block as a failure labelled `label`.

    A breach before the case counted its check counts one. A RuntimeError too,
    InsufficientMaxEffortError judges the draw, not the solver: it passes through.
    """
    counted = out.checks
    try:
        yield
    except InsufficientMaxEffortError:
        raise
    except RuntimeError as err:
        out.checks = max(out.checks, counted + 1)
        out.failures.append(f"{label}: {err}")


# ---------------------------------------------------------------------------
# scenario generators
# ---------------------------------------------------------------------------


def random_harm(rng: np.random.Generator) -> HarmModel:
    h_min = rng.uniform(0.02, 0.3)
    h_max = rng.uniform(h_min + 0.2, 1.0)
    return HarmModel(h_min, h_max, rng.uniform(0.5, 5.0))


def random_cost(rng: np.random.Generator) -> CostModel:
    return CostModel(rng.uniform(0.05, 1.0), rng.uniform(0.01, 0.5))


def random_welfare(rng: np.random.Generator) -> WelfareModel:
    return WelfareModel(random_harm(rng), random_cost(rng), rng.uniform(0.5, 5.0))


def random_levels(rng: np.random.Generator, n: int, top: float) -> np.ndarray:
    """Either a uniform grid or a random one, always from 0 up to `top`.

    A random grid is n - 2 sorted uniform levels on (0, top), conditioned on
    every gap exceeding _LEVEL_GAP, in one draw. The n - 1 gaps of sorted
    uniforms are uniform on the simplex of total top; so conditioned, they
    are _LEVEL_GAP each plus a uniform point of the simplex of total
    top - (n - 1) _LEVEL_GAP, a flat Dirichlet draw scaled to it. Every n
    whose gaps fit is drawn; where (n - 1) _LEVEL_GAP >= top none fit, and
    DomainError refuses the grid whichever branch would run.
    """
    spare = top - (n - 1) * _LEVEL_GAP
    if not spare > 0:
        raise DomainError(f"no grid of {n} levels from 0 to {float(top)!r} "
                          f"has every gap above {_LEVEL_GAP}")
    if rng.random() < 0.5:
        return np.linspace(0.0, top, n)
    gaps = _LEVEL_GAP + spare * rng.dirichlet(np.ones(n - 1))
    return np.concatenate([[0.0], np.cumsum(gaps[:-1]), [top]])


def random_mdp(
    rng: np.random.Generator,
    n_states_range: tuple = (11, 31),
    gamma_range: tuple = (0.5, 0.99),
) -> RegulationMdp:
    n = int(rng.integers(n_states_range[0], n_states_range[1] + 1))
    top = rng.uniform(0.6, 1.0) * _E_MAX
    levels = random_levels(rng, n, top)
    drift = rng.uniform(0.05, 0.8, size=n)
    drift[0] = 0.0
    return RegulationMdp(
        StateSpace(levels),
        build_action_grid(_E_MAX, _ACTION_STEP, levels),
        random_harm(rng),
        random_cost(rng),
        DriftModel(drift),
        float(rng.uniform(*gamma_range)),
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def threshold_matches_brute_force(n_scenarios: int = 20, seed: int = 101) -> SuiteResult:
    """The threshold policy at the stable effort matches policy iteration.

    Agreement means every state's brute-force optimal action is within one
    action-grid step of max(stable effort, required level).
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("threshold policy matches brute force")
    for case in range(n_scenarios):
        mdp = random_mdp(rng)
        out.checks += 1
        with _solver_case(out, f"case {case}"):
            stable = optimal_threshold(mdp)
            brute, _ = value_iteration(mdp)
            expected = np.maximum(stable, mdp.space.levels)
            diff = np.abs(brute.efforts - expected)
            if np.any(diff > _ACTION_STEP + 1e-9):
                j = int(np.argmax(diff))
                out.failures.append(
                    f"case {case}: state {mdp.space.levels[j]:.6g} plays "
                    f"{brute.efforts[j]:.6g} vs expected {expected[j]:.6g} "
                    f"(stable effort {stable:.6g}, gamma {mdp.gamma:.3f})"
                )
    return out


def states_below_threshold_share_value(n_scenarios: int = 20, seed: int = 101) -> SuiteResult:
    """Every state at or below a threshold carries one value, and the dense solve agrees.

    The structured `evaluate_threshold_policy` gives the held states one value
    by construction. The dense `evaluate_policy` of the same threshold policy
    must show that too: its held values may spread, and differ from the
    structured ones, by no more than 2(3n + 4) ulps of its value scale over
    1 - gamma. Residuals within (3n + 4) ulps allow that much: on the held
    rows, x_i = v_i - v_0 follows
    (1 - gamma (1 - h)(1 - g)) x_i = gamma (1 - h) g x_{i-1} + rho_i - rho_0.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("states below the threshold share one value")
    for case in range(n_scenarios):
        mdp = random_mdp(rng)
        for tau in np.linspace(0.0, mdp.space.backlash_level, _N_TAUS):
            out.checks += 1
            label = f"case {case}: tau {tau:.4g}"
            with _solver_case(out, label):
                structured = evaluate_threshold_policy(mdp, float(tau)).values
                dense = evaluate_policy(mdp, Policy.threshold(mdp.space, float(tau))).values
                scale = float(np.max(np.abs(dense)))
                bound = 2.0 * _residual_bound(mdp, scale) / (1.0 - mdp.gamma)
                spread = float(np.ptp(dense[mdp.space.levels <= tau]))
                apart = float(np.max(np.abs(dense - structured)))
                if spread > bound:
                    out.failures.append(
                        f"{label}: states held at the threshold diverged by {spread:.3g} "
                        f"in the dense solve; rounding allows {bound:.3g}"
                    )
                elif apart > bound:
                    out.failures.append(
                        f"{label}: dense and structured values differ by {apart:.3g}; "
                        f"rounding allows {bound:.3g}"
                    )
    return out


def backlash_state_is_worst(n_scenarios: int = 20, seed: int = 101) -> SuiteResult:
    """No state is worth less than the backlash state under threshold play."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("backlash state is never better than any other")
    for case in range(n_scenarios):
        mdp = random_mdp(rng)
        for tau in np.linspace(0.0, mdp.space.backlash_level, _N_TAUS):
            out.checks += 1
            with _solver_case(out, f"case {case}: tau {tau:.4g}"):
                vf = evaluate_threshold_policy(mdp, float(tau))
                worst = vf.at_backlash
                if np.any(worst > vf.values + _VALUE_TOL):
                    j = int(np.argmin(vf.values - worst))
                    out.failures.append(
                        f"case {case}: tau {tau:.4g} state {mdp.space.levels[j]:.4g} "
                        f"value {vf.values[j]:.6g} below backlash {worst:.6g}"
                    )
    return out


def effort_preference_signs_agree(
    n_scenarios: int = 20, seed: int = 101, n_triples: int = 1000
) -> SuiteResult:
    """Pairwise effort preferences match the value-gap criterion.

    For efforts e2 > e1 in state e_c, preferring e2 is equivalent to the
    no-harm continuation beating the backlash value by more than the marginal
    cost-per-harm-reduction ratio. Whenever the algebraic margin exceeds the
    tolerance, the directly computed action values must order the same way.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("effort preference signs agree with the value-gap rule")
    for case in range(n_scenarios):
        mdp = random_mdp(rng, n_states_range=(5, 15))
        tau = float(rng.uniform(0.0, mdp.space.backlash_level))
        with _solver_case(out, f"case {case}: tau {tau:.4g}"):
            vf = evaluate_threshold_policy(mdp, tau)
            e_top = mdp.actions.e_max
            for _ in range(n_triples):
                i = int(rng.integers(0, mdp.space.n_states))
                e_c = float(mdp.space.levels[i])
                lohi = np.sort(rng.uniform(e_c, e_top, size=2))
                e1, e2 = float(lohi[0]), float(lohi[1])
                if e2 <= e1:
                    continue
                out.checks += 1
                g = mdp.drift.prob(i)
                d = vf[i] if i == 0 else g * vf[i - 1] + (1.0 - g) * vf[i]
                h1, h2 = float(mdp.harm.prob(e1)), float(mdp.harm.prob(e2))
                c1, c2 = float(mdp.cost.value(e1)), float(mdp.cost.value(e2))
                predicted = mdp.gamma * (h1 - h2) * (d - vf.at_backlash) - (c2 - c1)
                if abs(predicted) <= _MARGIN_TOL:
                    continue
                actual = q_value(mdp, vf, e_c, e2) - q_value(mdp, vf, e_c, e1)
                if np.sign(actual) != np.sign(predicted):
                    out.failures.append(
                        f"case {case}: state {e_c:.4g} efforts ({e1:.4g}, {e2:.4g}) "
                        f"predicted {predicted:.3g} but actual {actual:.3g}"
                    )
    return out


def static_fines_never_exceed_requirement(n_pairs: int = 100, seed: int = 303) -> SuiteResult:
    """No audit probability and fine push effort above the requirement (the solver's check).

    This is the package's only random draw of audit probabilities and fines:
    the `static` subcommand solves just the configured regime.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("static fines never push effort past the requirement")
    cost = random_cost(rng)
    levels = np.linspace(0.0, 1.0, 11)
    actions = build_action_grid(1.0, _ACTION_STEP, levels)
    families = [StepAuditFailure(1.0), RampAuditFailure(5.0)]
    for case in range(n_pairs):
        r = float(rng.uniform(0.0, 1.0))
        fine = float(rng.uniform(0.0, _MAX_FINE))
        for fam in families:
            regime = StaticRegime(r, fine, fam)
            label = f"case {case}: r={r:.3g} fine={fine:.3g} under {type(fam).__name__}"
            for e_c in levels:
                out.checks += 1
                with _solver_case(out, label):
                    static_optimal_effort(regime, cost, float(e_c), actions)
    return out


def backlash_design_round_trip(n_designs: int = 10, seed: int = 404) -> SuiteResult:
    """Designed backlash levels reproduce the target effort when re-solved.

    `design_backlash` checks that itself; a draw it cannot bracket is skipped, uncounted.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("backlash design round trip recovers the target")
    built = attempts = 0
    while built < n_designs and attempts < _MAX_ATTEMPTS:
        attempts += 1
        welfare = random_welfare(rng)
        gamma = float(rng.uniform(0.6, 0.95))
        e_star = socially_optimal_effort(welfare, e_max=_DESIGN_E_MAX)
        if not 0.1 <= e_star <= 0.7 * _DESIGN_E_MAX:
            continue
        m = int(rng.integers(3, 8))
        lower = np.linspace(0.0, rng.uniform(0.4, 0.9) * e_star, m)
        template = StateSpace(np.append(lower, _DESIGN_E_MAX))
        drift = rng.uniform(0.1, 0.7, size=m + 1)
        drift[0] = 0.0
        try:
            with _solver_case(out, f"design {built + 1}"):
                design_backlash(welfare, gamma, template, DriftModel(drift), tol=1e-6,
                                e_max=_DESIGN_E_MAX, action_step=_ACTION_STEP)
                out.checks += 1
        except InsufficientMaxEffortError:
            continue
        built += 1
    if built < n_designs:
        out.checks += 1
        out.failures.append(
            f"only {built}/{n_designs} feasible designs found in {attempts} attempts"
        )
    return out


def weak_backlash_leaves_a_shortfall(n_scenarios: int = 10, seed: int = 505) -> SuiteResult:
    """With the backlash level at or below the social optimum, the gap is negative.

    `overreaction_gap` checks the sign itself, since every draw's top is <= e*.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("weak backlash levels leave a strict effort shortfall")
    built = 0
    while built < n_scenarios:
        welfare = random_welfare(rng)
        e_star = socially_optimal_effort(welfare, e_max=_E_MAX)
        if e_star < 0.15:
            continue
        built += 1
        out.checks += 1
        top = float(rng.uniform(0.35, 1.0) * e_star)
        n = int(rng.integers(4, 10))
        levels = np.linspace(0.0, top, n)
        drift = rng.uniform(0.05, 0.8, size=n)
        drift[0] = 0.0
        mdp = RegulationMdp(
            StateSpace(levels),
            build_action_grid(_E_MAX, _ACTION_STEP, levels),
            welfare.harm,
            welfare.cost,
            DriftModel(drift),
            float(rng.uniform(0.5, 0.95)),
        )
        with _solver_case(out, f"scenario {built}"):
            overreaction_gap(mdp, welfare)
    return out


def one_requirement_cannot_serve_two_costs() -> SuiteResult:
    """The canonical two-cost sweep finds no requirement serving both."""
    out = SuiteResult("one requirement cannot serve two cost structures")
    report = impossibility_report(
        HarmModel(0.1, 0.9, 3.0),
        2.0,
        CostModel(0.5, 0.1),
        CostModel(0.2, 0.05),
        0.9,
    )
    out.checks += 1
    if report.degenerate:
        out.failures.append("canonical costs flagged as indistinguishable")
    elif not report.conclusion:
        hits = [r for r in report.records() if r["attains_both"]]
        out.failures.append(f"{len(hits)} candidate requirements attain both optima")
    return out


def monte_carlo_matches_analytic(
    n_scenarios: int = 5, seed: int = 701, n_episodes: int = 100_000
) -> SuiteResult:
    """Sampled returns of the stable-threshold policy match the exact values.

    A case fails when the estimate misses the exact value by more than four
    standard errors beyond rounding and truncation (`agreement_z`). A 95
    percent interval misses one correct draw in twenty; four standard errors
    miss about one in 16,000.
    """
    rng = np.random.default_rng(seed)
    out = SuiteResult("Monte Carlo estimates match analytic values")
    for case in range(n_scenarios):
        mdp = random_mdp(rng, n_states_range=(5, 15), gamma_range=(0.5, 0.9))
        out.checks += 1
        with _solver_case(out, f"case {case}"):
            stable = optimal_threshold(mdp)
            policy = Policy.threshold(mdp.space, stable)
            analytic = evaluate_policy(mdp, policy).at_backlash
            est = estimate_value(
                mdp, policy, n_episodes=n_episodes, seed=int(rng.integers(0, 2**31))
            )
            z = agreement_z(est, analytic)
            if not abs(z) <= 4.0:  # a NaN z fails too
                out.failures.append(
                    f"case {case}: estimate {est.mean:.6g} vs analytic {analytic:.6g} "
                    f"is {z:.3g} standard errors off"
                )
    return out


def numeric_hygiene(n_points: int = 1000, seed: int = 808) -> SuiteResult:
    """Derivatives, solver residuals, and the welfare optimum stay tight."""
    rng = np.random.default_rng(seed)
    out = SuiteResult("derivatives, residuals, and optima stay within tolerance")
    delta = float(np.cbrt(np.finfo(float).eps))

    def central(f, x):
        return (f(x + delta) - f(x - delta)) / (2.0 * delta)

    # analytic derivatives against central differences, relative error
    for _ in range(n_points):
        harm = random_harm(rng)
        cost = random_cost(rng)
        e = float(rng.uniform(delta, 1.0))
        out.checks += 1
        hd = float(harm.derivative(e))
        if abs(central(harm.prob, e) - hd) > _REL_TOL * max(abs(hd), 1e-12):
            out.failures.append(f"harm slope at {e:.4g} off by more than {_REL_TOL}")
        out.checks += 1
        cd = float(cost.derivative(e))
        if abs(central(cost.value, e) - cd) > _REL_TOL * max(abs(cd), 1e-12):
            out.failures.append(f"cost slope at {e:.4g} off by more than {_REL_TOL}")

    # evaluated value functions leave residuals within the solver's own bound
    for case in range(10):
        mdp = random_mdp(rng, n_states_range=(5, 15))
        policy = Policy.threshold(mdp.space, float(rng.uniform(0, mdp.space.backlash_level)))
        out.checks += 1
        with _solver_case(out, f"evaluation {case}"):
            evaluate_policy(mdp, policy)

    # root-found welfare optimum against a grid argmax
    grid = np.linspace(0.0, 1.0, 10001)
    for _ in range(20):
        welfare = random_welfare(rng)
        out.checks += 1
        e_star = socially_optimal_effort(welfare)
        by_grid = float(grid[int(np.argmax(welfare.expected_welfare(grid)))])
        if abs(e_star - by_grid) > 2e-4:
            out.failures.append(f"optimum {e_star:.6g} vs grid argmax {by_grid:.6g}")
    return out


def run_all(n_scenarios: int = 5, seed: int = 20240801, mc_episodes: int = 20000):
    """Run every suite at a size suited to an interactive check."""
    return [
        threshold_matches_brute_force(n_scenarios, seed),
        states_below_threshold_share_value(n_scenarios, seed),
        backlash_state_is_worst(n_scenarios, seed),
        effort_preference_signs_agree(n_scenarios, seed, n_triples=200),
        static_fines_never_exceed_requirement(max(10, n_scenarios * 4), seed),
        backlash_design_round_trip(max(3, n_scenarios // 2), seed),
        weak_backlash_leaves_a_shortfall(max(3, n_scenarios // 2), seed),
        one_requirement_cannot_serve_two_costs(),
        monte_carlo_matches_analytic(min(3, n_scenarios), seed, mc_episodes),
        numeric_hygiene(max(100, n_scenarios * 20), seed),
    ]
