"""Solver for effort regulation with harm-triggered public backlash.

A platform chooses costly moderation effort each period. Harmful content
slips through with an effort-dependent probability; when it does, public
pressure jumps the required effort to a backlash level, which then decays
stochastically. This package evaluates policies exactly, finds the
platform's stable effort, designs backlash levels that make the socially
optimal effort stable, and contrasts the dynamic regime with static
audit-and-fine regulation.
"""

from .config import DEFAULTS, Config, load_config
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    FeasibilityError,
    HorizonTooShortError,
    InsufficientMaxEffortError,
)
from .mdp import (
    ActionGrid,
    Policy,
    RegulationMdp,
    StateSpace,
    build_action_grid,
    build_state_space,
)
from .policy import (
    ValueFunction,
    evaluate_policy,
    evaluate_threshold_policy,
    policy_improvement_check,
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
from .simulate import (
    Trajectory,
    TrajectoryStep,
    ValueEstimate,
    agreement_z,
    estimate_value,
    minimal_horizon,
    sample_trajectory,
    truncation_bound,
)
from .thresholds import (
    BacklashDesign,
    ImpossibilityReport,
    RampAuditFailure,
    StaticRegime,
    StepAuditFailure,
    design_backlash,
    impossibility_report,
    optimal_threshold,
    overreaction_gap,
    static_expected_utility,
    static_optimal_effort,
)
from .verification import SuiteResult, random_mdp, random_welfare, run_all

__version__ = "0.1.0"

__all__ = [
    "ActionGrid",
    "BacklashDesign",
    "Config",
    "ConfigError",
    "ConstructionError",
    "CostModel",
    "DEFAULTS",
    "DomainError",
    "DriftModel",
    "FeasibilityError",
    "HarmModel",
    "HorizonTooShortError",
    "ImpossibilityReport",
    "InsufficientMaxEffortError",
    "Policy",
    "RampAuditFailure",
    "RegulationMdp",
    "StateSpace",
    "StaticRegime",
    "StepAuditFailure",
    "SuiteResult",
    "Trajectory",
    "TrajectoryStep",
    "ValueEstimate",
    "ValueFunction",
    "WelfareModel",
    "agreement_z",
    "build_action_grid",
    "build_state_space",
    "design_backlash",
    "estimate_value",
    "evaluate_policy",
    "evaluate_threshold_policy",
    "impossibility_report",
    "load_config",
    "minimal_horizon",
    "optimal_threshold",
    "overreaction_gap",
    "policy_improvement_check",
    "q_value",
    "random_mdp",
    "random_welfare",
    "sample_trajectory",
    "socially_optimal_effort",
    "static_expected_utility",
    "static_optimal_effort",
    "truncation_bound",
    "value_iteration",
    "__version__",
]
