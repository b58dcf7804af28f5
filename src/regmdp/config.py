"""Flat JSON configuration: defaults, validation, and model builders.

A config file is a single JSON object of scalar values. Unknown keys are
rejected and every violation is collected before raising, so one pass
reports all problems. Each numeric key has one rule in `_RULES`; the
orderings between keys are checked only over values that passed their own
rule, so one mistake gives one message.
"""

import json
import operator
import sys

from .errors import ConfigError, ConstructionError
from .mdp import RegulationMdp, StateSpace, build_action_grid, build_state_space
from .primitives import CostModel, DriftModel, HarmModel, WelfareModel
from .thresholds import RampAuditFailure, StaticRegime, StepAuditFailure

DEFAULTS = {
    "h_min": 0.1,
    "h_max": 0.9,
    "k": 3.0,
    "cost_a": 0.5,
    "cost_b": 0.1,
    "cost_a2": 0.2,
    "cost_b2": 0.05,
    "damage": 2.0,
    "gamma": 0.9,
    "state_min": 0.0,
    "state_count": 11,
    "backlash_effort": 1.0,
    "effort_max": 1.0,
    "drift": 0.3,
    "action_step": 0.001,
    "refine_tol": 1e-6,
    "seed": 42,
    "audit_prob": 0.5,
    "fine": 10.0,
    "fail_model": "step",
    "fail_p0": 1.0,
    "fail_beta": 5.0,
    "episodes": 100000,
    "horizon": 0,
    "start_state": None,
    "verify_scenarios": 5,
}

_INT_KEYS = {"state_count", "seed", "episodes", "horizon", "verify_scenarios"}

# the one rule of each numeric key: (test, what its message says the key must do)
_RULES = {
    "h_min": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
    "h_max": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    "gamma": (lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    "fail_p0": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    **dict.fromkeys(("state_count", "episodes"), (lambda v: v >= 2, "must be at least 2")),
    **dict.fromkeys(("drift", "audit_prob"), (lambda v: 0 <= v <= 1, "must lie in [0, 1]")),
    **dict.fromkeys(
        ("k", "cost_a", "cost_b", "cost_a2", "cost_b2", "backlash_effort", "effort_max",
         "action_step", "refine_tol", "fine", "fail_beta"),
        (lambda v: v > 0, "must be positive"),
    ),
    **dict.fromkeys(
        ("damage", "state_min", "seed", "horizon", "start_state"),
        (lambda v: v >= 0, "must be non-negative"),
    ),
    "verify_scenarios": (lambda v: v >= 1, "must be at least 1"),
}

# a cap on the action grid, in steps of action_step up to effort_max: one
# float per step, and every solve scans the whole grid
_MAX_GRID_STEPS = 10**6

# (lower key, upper key, test, relation): checked once both keys pass their own rule
_ORDERINGS = (
    ("h_min", "h_max", operator.lt, "must be below"),
    ("backlash_effort", "effort_max", operator.le, "must not exceed"),
    ("state_min", "backlash_effort", operator.lt, "must be below"),
    ("action_step", "effort_max", lambda step, top: top / step <= _MAX_GRID_STEPS,
     f"must keep the action grid within its cap of {_MAX_GRID_STEPS:,} steps up to"),
)


class Config(dict):
    """Validated settings with builders for the model objects."""

    def harm(self) -> HarmModel:
        return HarmModel(self["h_min"], self["h_max"], self["k"])

    def cost(self) -> CostModel:
        return CostModel(self["cost_a"], self["cost_b"])

    def second_cost(self) -> CostModel:
        return CostModel(self["cost_a2"], self["cost_b2"])

    def welfare(self) -> WelfareModel:
        return WelfareModel(self.harm(), self.cost(), self["damage"])

    def state_space(self) -> StateSpace:
        return build_state_space(
            self["state_min"], self["effort_max"],
            self["state_count"], self["backlash_effort"],
        )

    def drift_model(self, n_states: int) -> DriftModel:
        return DriftModel.constant(self["drift"], n_states)

    def mdp(self) -> RegulationMdp:
        space = self.state_space()
        actions = build_action_grid(self["effort_max"], self["action_step"], space.levels)
        return RegulationMdp(
            space, actions, self.harm(), self.cost(),
            self.drift_model(space.n_states), self["gamma"],
        )

    def static_regime(self) -> StaticRegime:
        if self["fail_model"] == "step":
            fam = StepAuditFailure(self["fail_p0"])
        else:
            fam = RampAuditFailure(self["fail_beta"])
        return StaticRegime(self["audit_prob"], self["fine"], fam)


def _validate(settings: dict) -> tuple[list, dict]:
    """Violations, and each numeric key that passed its rule, integer keys as int."""
    problems, passed = [], {}
    for key, value in settings.items():
        if key == "fail_model":
            if value not in ("step", "ramp"):
                problems.append(f"fail_model must be 'step' or 'ramp', got {value!r}")
        elif key == "start_state" and value is None:
            pass  # null starts simulate at the backlash level
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            kind = "a number or null" if key == "start_state" else "a number"
            problems.append(f"{key} must be {kind}, got {value!r}")
        elif not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float can hold
            problems.append(f"{key} must be finite, got {value!r}")
        elif key in _INT_KEYS and int(value) != value:
            problems.append(f"{key} must be an integer, got {value!r}")
        else:
            value = int(value) if key in _INT_KEYS else value
            holds, text = _RULES[key]
            if holds(value):
                passed[key] = value
            else:
                problems.append(f"{key} {text}, got {value!r}")
    for lo, hi, holds, relation in _ORDERINGS:
        if lo in passed and hi in passed and not holds(passed[lo], passed[hi]):
            problems.append(f"{lo} ({passed[lo]!r}) {relation} {hi} ({passed[hi]!r})")
    # c(effort_max), its slope and c(effort_max) / (1 - gamma) bound the costs,
    # slopes and values that solves and rollouts form (`CostModel.ceiling`)
    limits = []  # c(effort_max) and c'(effort_max) of each cost pair that passed
    for a, b in (("cost_a", "cost_b"), ("cost_a2", "cost_b2")):
        keys = (a, b, "effort_max", "gamma")
        if all(key in passed for key in keys):
            qa, qb, top, gamma = (passed[key] for key in keys)
            cost = CostModel(qa, qb)
            try:
                limits.append((cost.ceiling(top, gamma), cost.derivative(top)))
            except ConstructionError:
                problems.append(
                    f"{a} ({qa!r}) and {b} ({qb!r}) must keep c(effort_max), c'(effort_max) "
                    f"and c(effort_max) / (1 - gamma) finite at effort_max ({top!r}) and "
                    f"gamma ({gamma!r})"
                )
    # with damage, |h'(0)| damage + c'(effort_max) bounds the welfare slope and
    # (h(0) damage + c(effort_max)) / (1 - gamma) the discounted welfare loss;
    # both grow with the cost, so the largest pair decides, and damage gets one message
    # (an h_min at or above h_max is reported by its ordering)
    keys = ("h_min", "h_max", "k", "damage")
    if limits and all(key in passed for key in keys) and passed["h_min"] < passed["h_max"]:
        h_min, h_max, k, damage = (passed[key] for key in keys)
        harm = HarmModel(h_min, h_max, k)
        c_top = max(c for c, _ in limits)
        slope = -harm.derivative(0.0) * damage + max(d for _, d in limits)
        loss = (harm.prob(0.0) * damage + c_top) * (1.0 / (1.0 - gamma))
        if not max(slope, loss) <= sys.float_info.max:  # Python floats overflow silently
            problems.append(
                f"damage ({damage!r}) must keep |h'(0)| damage + c'(effort_max) and "
                f"(h(0) damage + c(effort_max)) / (1 - gamma) finite for each cost pair at "
                f"effort_max ({top!r}) and gamma ({gamma!r})"
            )
    return problems, passed


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Merge defaults, an optional JSON file, and explicit overrides."""
    loaded = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"])
        except json.JSONDecodeError as err:
            raise ConfigError([f"config file is not valid JSON: {err}"])
        if not isinstance(loaded, dict):
            raise ConfigError(["config file must hold a single JSON object"])
    settings = dict(DEFAULTS)
    problems = []
    for source in (loaded, overrides or {}):
        problems += [f"unknown key: {key}" for key in sorted(set(source) - set(DEFAULTS))]
        settings.update({k: v for k, v in source.items() if k in DEFAULTS})

    invalid, checked = _validate(settings)
    if problems + invalid:
        raise ConfigError(problems + invalid)
    return Config(settings, **checked)
