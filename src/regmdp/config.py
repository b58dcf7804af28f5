"""Flat JSON configuration: defaults, validation, and model builders.

A config file is a single JSON object of scalar values. Unknown keys are
rejected and every violation is collected before raising, so one pass
reports all problems.
"""

import json
import warnings

from .errors import ConfigError
from .mdp import RegulationMdp, StateSpace, build_action_grid, build_state_space
from .primitives import CostModel, DriftModel, HarmModel, WelfareModel, socially_optimal_effort
from .thresholds import RampAuditFailure, StaticRegime, StepAuditFailure, _design_constant

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
    "value_tol": 1e-10,
    "seed": 42,
    "audit_prob": 0.5,
    "fine": 10.0,
    "fail_model": "step",
    "fail_p0": 1.0,
    "fail_beta": 5.0,
    "static_draws": 100,
    "episodes": 100000,
    "horizon": 0,
    "start_state": None,
    "verify_scenarios": 5,
}

_INT_KEYS = {"state_count", "seed", "static_draws", "episodes", "horizon", "verify_scenarios"}
_POSITIVE = {
    "k", "cost_a", "cost_b", "cost_a2", "cost_b2", "backlash_effort",
    "effort_max", "action_step", "refine_tol", "value_tol", "fine", "fail_beta",
}
_NONNEGATIVE = {"damage", "state_min", "drift", "audit_prob"}


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


def _validate(settings: dict) -> list:
    problems = []
    for key, value in settings.items():
        if key == "fail_model":
            if value not in ("step", "ramp"):
                problems.append(f"fail_model must be 'step' or 'ramp', got {value!r}")
            continue
        if key == "start_state":
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"start_state must be a number or null, got {value!r}")
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{key} must be a number, got {value!r}")
            continue
        if key in _INT_KEYS and int(value) != value:
            problems.append(f"{key} must be an integer, got {value!r}")
        if key in _POSITIVE and not value > 0:
            problems.append(f"{key} must be positive, got {value!r}")
        if key in _NONNEGATIVE and not value >= 0:
            problems.append(f"{key} must be non-negative, got {value!r}")

    def num(key):
        v = settings.get(key)
        return v if isinstance(v, (int, float)) and not isinstance(v, bool) else None

    h_min, h_max = num("h_min"), num("h_max")
    if h_min is not None and not 0 < h_min < 1:
        problems.append(f"h_min must lie in (0, 1), got {h_min!r}")
    if h_max is not None and not 0 < h_max <= 1:
        problems.append(f"h_max must lie in (0, 1], got {h_max!r}")
    if h_min is not None and h_max is not None and 0 < h_min < 1 and h_min >= h_max:
        problems.append(f"h_min ({h_min!r}) must be below h_max ({h_max!r})")
    gamma = num("gamma")
    if gamma is not None and not 0 <= gamma < 1:
        problems.append(f"gamma must lie in [0, 1), got {gamma!r}")
    for key in ("drift", "audit_prob"):
        v = num(key)
        if v is not None and not 0 <= v <= 1:
            problems.append(f"{key} must lie in [0, 1], got {v!r}")
    p0 = num("fail_p0")
    if p0 is not None and not 0 < p0 <= 1:
        problems.append(f"fail_p0 must lie in (0, 1], got {p0!r}")
    count = num("state_count")
    if count is not None and count == int(count) and count < 2:
        problems.append(f"state_count must be at least 2, got {int(count)}")
    for key in ("static_draws", "episodes", "verify_scenarios"):
        v = num(key)
        if v is not None and v == int(v) and v < 1:
            problems.append(f"{key} must be at least 1, got {int(v)}")
    horizon = num("horizon")
    if horizon is not None and horizon == int(horizon) and horizon < 0:
        problems.append(f"horizon must be non-negative, got {int(horizon)}")
    start = settings.get("start_state")
    if isinstance(start, (int, float)) and not isinstance(start, bool) and start < 0:
        problems.append(f"start_state must be non-negative, got {start!r}")
    b, e = num("backlash_effort"), num("effort_max")
    if b is not None and e is not None and b > e:
        problems.append(
            f"backlash_effort ({b!r}) must not exceed effort_max ({e!r})"
        )
    s, b2 = num("state_min"), num("backlash_effort")
    if s is not None and b2 is not None and s >= b2:
        problems.append(
            f"state_min ({s!r}) must be below backlash_effort ({b2!r})"
        )
    return problems


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Merge defaults, an optional JSON file, and explicit overrides."""
    settings = dict(DEFAULTS)
    problems = []
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
        unknown = sorted(set(loaded) - set(DEFAULTS))
        problems += [f"unknown key: {key}" for key in unknown]
        settings.update({k: v for k, v in loaded.items() if k in DEFAULTS})
    if overrides:
        unknown = sorted(set(overrides) - set(DEFAULTS))
        problems += [f"unknown key: {key}" for key in unknown]
        settings.update({k: v for k, v in overrides.items() if k in DEFAULTS})

    problems += _validate(settings)
    if problems:
        raise ConfigError(problems)

    for key in _INT_KEYS:
        settings[key] = int(settings[key])
    config = Config(settings)

    # an unreachable design target is legal but worth flagging early
    gamma = config["gamma"]
    if 0 < gamma < 1:
        welfare = config.welfare()
        e_star = socially_optimal_effort(welfare, e_max=config["effort_max"])
        if e_star > 1e-12:
            needed = _design_constant(welfare, gamma, e_star)
            ceiling = welfare.cost.value(config["effort_max"]) / (1.0 - gamma)
            if needed > ceiling:
                warnings.warn(
                    "backlash design is infeasible at this effort ceiling: "
                    f"the target requires {needed:.6g} but the ceiling caps "
                    f"lifetime cost at {ceiling:.6g}",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return config

