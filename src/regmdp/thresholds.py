"""Stable over-compliance thresholds, backlash design, and static audit limits.

The central quantity is the stable effort: the highest effort a forward-looking
platform will hold even in states that demand less, because slacking off now
raises the chance of being thrown into the costly backlash state later. This
module computes that effort from the model, inverts the relationship to design
a backlash level that makes a chosen target effort stable, and contrasts both
with what static fines can achieve.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InsufficientMaxEffortError,
)
from .mdp import ActionGrid, RegulationMdp, StateSpace, build_action_grid
from .policy import ThresholdChain
from .primitives import (
    CostModel, DriftModel, HarmModel, WelfareModel, _bisect, _effort_array,
    socially_optimal_effort,
)

_ATTAIN_TOL = 1e-3  # how close a requirement must come to an optimum to attain it

# ---------------------------------------------------------------------------
# static audit regime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepAuditFailure:
    """Audit fails with a flat probability p0 whenever effort is short."""

    p0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p0 <= 1.0:
            raise ConstructionError(f"p0 must lie in (0, 1], got {self.p0}")

    def __call__(self, e, e_c):
        e = np.asarray(e, dtype=float)
        return np.where(e < e_c, self.p0, 0.0)


@dataclass(frozen=True)
class RampAuditFailure:
    """Audit failure probability grows linearly with the effort shortfall."""

    beta: float = 5.0

    def __post_init__(self):
        if not self.beta > 0:
            raise ConstructionError(f"beta must be positive, got {self.beta}")

    def __call__(self, e, e_c):
        e = np.asarray(e, dtype=float)
        return np.where(e < e_c, np.minimum(1.0, self.beta * (e_c - e)), 0.0)


@dataclass(frozen=True)
class StaticRegime:
    """One-shot enforcement: audit with some probability, fine on failure."""

    audit_prob: float
    fine: float
    fail_model: object = StepAuditFailure()

    def __post_init__(self):
        if not 0.0 <= self.audit_prob <= 1.0:
            raise ConstructionError(f"audit_prob must lie in [0, 1], got {self.audit_prob}")
        if not 0 <= self.fine <= sys.float_info.max:  # also refuses an int no float holds
            raise ConstructionError(f"fine must be finite and non-negative, got {self.fine}")


def static_expected_utility(regime: StaticRegime, cost: CostModel, e, e_c: float):
    """Platform payoff -cost(e) - audit_prob * P_fail(e | e_c) * fine.

    Meeting the requirement makes an audit failure impossible by definition,
    so the failure probability is forced to zero for e >= e_c no matter what
    the supplied failure family returns there. Probabilities outside [0, 1],
    or NaN, raise DomainError.
    """
    e_arr = _effort_array(e)
    pf = np.where(e_arr < e_c, np.asarray(regime.fail_model(e_arr, e_c), dtype=float), 0.0)
    if not np.all((pf >= 0) & (pf <= 1)):  # NaN fails it too
        raise DomainError("failure model produced probabilities outside [0, 1] or NaN")
    out = -np.asarray(cost.value(e_arr)) - regime.audit_prob * pf * regime.fine
    return float(out) if out.ndim == 0 else out


def static_optimal_effort(
    regime: StaticRegime, cost: CostModel, e_c: float, actions: ActionGrid
) -> float:
    """Platform's best effort under one-shot enforcement, over the full grid.

    The search is unconstrained (any grid effort, above or below e_c), yet the
    answer can never exceed e_c: beyond the requirement the fine term is zero
    and cost strictly increases. That cap is re-checked as a postcondition so
    a broken failure family cannot slip through silently.
    """
    eu = static_expected_utility(regime, cost, actions.efforts, e_c)
    best = float(actions.efforts[int(np.argmax(eu))])  # ties go to the lowest effort
    if best > e_c + 1e-12:
        raise RuntimeError(
            f"static enforcement induced effort {best} above the requirement {e_c}; "
            "this breaks the no-overshoot guarantee"
        )
    return best


# ---------------------------------------------------------------------------
# stable effort under adaptive regulation
# ---------------------------------------------------------------------------


def optimal_threshold(mdp: RegulationMdp, refine_tol: float = 1e-6) -> float:
    """The stable effort: the highest threshold the platform holds voluntarily.

    Searches the action-grid efforts up to the backlash level from the top
    down and stops at the first that meets the hold condition
    (`ThresholdChain.last_hold`), so only the candidates above the last
    holding one, and that one, are evaluated; then refines the sign change
    above it by bisection on the continuous margin down to refine_tol
    (`ThresholdChain.margin`). Both run on one `ThresholdChain`, built once
    per solve, and every candidate they evaluate has passed its residual and
    range checks. Returns 0 when the condition holds nowhere (then complying
    exactly is already optimal), as for every myopic platform: at gamma = 0
    each margin is -c'(e).
    """
    if not refine_tol > 0:
        raise DomainError(f"refine_tol must be positive, got {refine_tol}")
    chain = ThresholdChain(mdp)
    cand = mdp.actions.efforts[mdp.actions.efforts <= mdp.space.backlash_level + 1e-12]
    i = chain.last_hold(cand)
    if i < 0:
        return 0.0
    if i == cand.size - 1:
        return float(cand[-1])
    lo, hi = float(cand[i]), float(cand[i + 1])  # margin(lo) >= 0 > margin(hi)
    return _bisect(lambda e: chain.margin(e) >= 0.0, lo, hi, refine_tol)


def overreaction_gap(mdp: RegulationMdp, welfare: WelfareModel) -> float:
    """Stable effort minus the socially optimal effort.

    A weak backlash level (at or below the social optimum) can never close
    the gap: holding the backlash level itself is worthless there, so the
    stable effort falls strictly short. That sign is re-checked on every call.
    """
    e_star = socially_optimal_effort(welfare, e_max=mdp.actions.e_max)
    stable = optimal_threshold(mdp)
    gap = stable - e_star
    if mdp.space.backlash_level <= e_star + 1e-12 and not gap < 0:
        raise RuntimeError(
            f"a backlash level of {mdp.space.backlash_level} at or below the social "
            f"optimum {e_star} produced a non-negative gap {gap}; this should be impossible"
        )
    return gap


# ---------------------------------------------------------------------------
# backlash design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BacklashDesign:
    """Outcome of tuning the backlash level to make a target effort stable.

    residual is the hold margin at the target on the designed chain, in
    per-period cost units (O(1) at every gamma); NaN for a degenerate design.
    """

    target_e_star: float
    designed_e_h: float
    achieved_threshold: float
    residual: float
    degenerate: bool = False


def _design_constant(welfare: WelfareModel, gamma: float, e_star: float) -> float:
    """Lifetime cost K that the backlash state must impose to make e_star stable.

    K is +inf once gamma * h'(e_star) underflows to 0: the platform weighs
    the backlash too little for any finite cost to hold e_star.
    """
    harm, cost = welfare.harm, welfare.cost
    slope = gamma * harm.derivative(e_star)
    if slope == 0.0:
        return math.inf
    hold = cost.value(e_star) - cost.derivative(e_star) * (
        1.0 - gamma * (1.0 - harm.prob(e_star))
    ) / slope
    return hold / (1.0 - gamma)


def design_backlash(
    welfare: WelfareModel,
    gamma: float,
    space_template: StateSpace,
    drift: DriftModel,
    tol: float = 1e-6,
    *,
    e_max: float = 1.0,
    action_step: float = 1e-3,
) -> BacklashDesign:
    """Pick the backlash level that makes the socially optimal effort stable.

    The template's lower levels stay fixed while its top level is replaced by
    each probe e_h, so the comparison isolates the backlash parameter. A
    probe is the hold margin at the target e* on its chain,
    `ThresholdChain.margin(e*)`, the condition `optimal_threshold` solves; it
    is negative for weak backlash levels and crosses zero before the effort
    ceiling whenever the ceiling's cost is sufficiently large. It equals
    (-gamma h'(e*) / H) (1 - gamma) (-V_B - K), H = 1 - gamma (1 - h(e*)), a
    positive multiple of the backlash value's shortfall from the lifetime
    cost K (`_design_constant`, computed only to report an infeasible design),
    when e* is at or above the lowest fixed level; a template above e* is
    refused before any probe. Bisection on the bracket pins the level to
    within tol, then the designed MDP is re-solved and the achieved stable
    effort must land within two action-grid steps of the target.
    """
    if not 0.0 < gamma < 1.0:
        raise DomainError(
            f"backlash design needs a forward-looking platform with gamma in (0, 1), got {gamma}"
        )
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    lower = space_template.levels[:-1]
    if lower[-1] >= e_max:
        raise ConstructionError("the template's fixed levels must sit below the effort ceiling")

    harm, cost = welfare.harm, welfare.cost
    e_star = socially_optimal_effort(welfare, e_max=e_max)

    def probe_mdp(e_h: float) -> RegulationMdp:
        space = StateSpace(np.append(lower, e_h))
        grid = build_action_grid(e_max, action_step, space.levels)
        return RegulationMdp(space, grid, harm, cost, drift, gamma)

    if e_star <= 1e-12:
        # a zero target makes the design problem vacuous: any regulation
        # overshoots it. Report the weakest valid backlash level, flag the
        # result, and leave achieved_threshold as information only; the
        # template's fixed levels alone may force over-compliance here.
        e_h = min(float(lower[-1]) + max(tol, action_step), e_max)
        achieved = optimal_threshold(probe_mdp(e_h))
        return BacklashDesign(e_star, e_h, achieved, math.nan, degenerate=True)
    if lower[0] > e_star:
        raise ConstructionError(
            f"the template's fixed levels start at {lower[0]:.6g}, above the target "
            f"{e_star:.6g}, so no state can hold it"
        )

    def probe(e_h: float) -> float:
        return ThresholdChain(probe_mdp(e_h)).margin(e_star)

    lo = max(e_star, float(lower[-1]) + 1e-9)
    if lo >= e_max or probe(e_max) <= 0.0:
        k_constant = _design_constant(welfare, gamma, e_star)
        raise InsufficientMaxEffortError(k_constant, float(cost.value(e_max)))
    if probe(lo) > 0.0:
        raise ConstructionError(
            "the template's fixed levels sit too high: the probe already overshoots "
            f"at the smallest valid backlash level {lo:.6g}"
        )
    e_h = _bisect(lambda e: probe(e) <= 0.0, lo, e_max, tol)
    residual = probe(e_h)

    achieved = optimal_threshold(probe_mdp(e_h))
    if abs(achieved - e_star) > 2.0 * action_step:
        if tol > action_step:
            # a bracket wider than the action grid's step can leave the level
            # far enough off to move the stable effort by several steps
            raise DomainError(
                f"design tolerance {tol:g} (refine_tol in a config) is coarser than the "
                f"action step {action_step:g}: the backlash level {e_h:.6g} it allows "
                f"yields stable effort {achieved:.6g}, off the target {e_star:.6g} by more "
                f"than two action steps; use a refine_tol of at most {action_step:g}"
            )
        raise RuntimeError(
            f"designed backlash level {e_h:.6g} yields stable effort {achieved:.6g}, "
            f"off the target {e_star:.6g} by more than two action steps"
        )
    if not e_h > e_star:
        raise RuntimeError(
            f"designed backlash level {e_h:.6g} failed to exceed the target {e_star:.6g}"
        )
    return BacklashDesign(e_star, e_h, achieved, residual)


# ---------------------------------------------------------------------------
# one requirement cannot serve two cost structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ImpossibilityReport:
    """Sweep showing no single static requirement fits two cost structures."""

    e_star_1: float
    e_star_2: float
    degenerate: bool
    attain_tol: float
    rows: tuple
    conclusion: bool

    def records(self):
        return [dict(r) for r in self.rows]


def impossibility_report(
    h: HarmModel,
    damage: float,
    cost_1: CostModel,
    cost_2: CostModel,
    gamma: float,
    *,
    e_max: float = 1.0,
    candidate_step: float = 1e-3,
) -> ImpossibilityReport:
    """Demonstrate that one required effort cannot be right for two platforms.

    Two platforms share the harm curve but differ in cost structure, so their
    socially optimal efforts differ. Under one-shot enforcement a platform
    complies exactly with the requirement and never exceeds it, hence the
    induced effort per candidate requirement is the requirement itself. The
    sweep tabulates, for each candidate, the distance to each platform's
    optimum and the per-period and discounted welfare losses; the conclusion
    flag records that no candidate lands within attain_tol (1e-3) of both
    optima.

    The demonstration itself is static: gamma only converts per-period losses
    into discounted totals.
    """
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
    w1 = WelfareModel(h, cost_1, damage)
    w2 = WelfareModel(h, cost_2, damage)
    e1 = socially_optimal_effort(w1, e_max=e_max)
    e2 = socially_optimal_effort(w2, e_max=e_max)
    degenerate = abs(e1 - e2) <= _ATTAIN_TOL

    # both optima anchor the candidate grid; collapse them when they coincide
    anchors = (e1,) if abs(e1 - e2) <= 1e-12 else (e1, e2)
    grid = build_action_grid(e_max, candidate_step, anchors).efforts
    gap1, gap2 = grid - e1, grid - e2
    loss1 = w1.expected_welfare(e1) - w1.expected_welfare(grid)
    loss2 = w2.expected_welfare(e2) - w2.expected_welfare(grid)
    attains = (np.abs(gap1) <= _ATTAIN_TOL) & (np.abs(gap2) <= _ATTAIN_TOL)
    horizon_factor = 1.0 / (1.0 - gamma)
    rows = tuple(
        (
            ("required_effort", e_c),
            ("induced_effort", e_c),
            ("gap_to_optimum_1", g1),
            ("gap_to_optimum_2", g2),
            ("welfare_loss_1", l1),
            ("welfare_loss_2", l2),
            ("discounted_loss_1", l1 * horizon_factor),
            ("discounted_loss_2", l2 * horizon_factor),
            ("attains_both", both),
        )
        for e_c, g1, g2, l1, l2, both in zip(
            grid.tolist(), gap1.tolist(), gap2.tolist(), loss1.tolist(), loss2.tolist(),
            attains.tolist(),
        )
    )
    conclusion = not attains.any() and not degenerate
    return ImpossibilityReport(e1, e2, degenerate, _ATTAIN_TOL, rows, conclusion)
