"""Spans recorded from outside the package, around calls into each module.

A span is [name, start, end, parent, op, last, attrs]: `parent` is the index
of the enclosing span (-1 at the top), `op` labels the benchmark operation
that caused it, `last` is the span count when it closed (so its descendants
are exactly the indices between its own and `last`), and `attrs` holds a few
arguments the per-layer metrics need. Spans stay in memory and are written
out once, when the run ends.

Wrapping works by replacing a function in every `regmdp` module namespace
that holds it, so a call made through a module global (for example
`thresholds.evaluate_threshold_policy` inside `optimal_threshold`) is seen
as well as a call made by the benchmark itself.
"""

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, LAST, ATTRS = range(7)

LAYERS = ("cli", "config", "primitives", "mdp", "policy", "thresholds", "simulate",
          "verification")


def _n_states(mdp, *args, **kwargs):
    return {"n": int(mdp.space.n_states)}


def _threshold_attrs(mdp, tau, *args, **kwargs):
    grid = mdp.actions.efforts
    j = int(np.searchsorted(grid, tau))
    on_grid = j < grid.size and grid[j] == tau
    return {"n": int(mdp.space.n_states), "on_grid": bool(on_grid)}


def _rollout_attrs(*args, **kwargs):
    from regmdp.simulate import estimate_value, minimal_horizon

    call = inspect.signature(estimate_value).bind(*args, **kwargs)
    call.apply_defaults()
    a = call.arguments
    horizon = a["horizon"] or minimal_horizon(a["mdp"], a["max_truncation_bias"])
    return {"episodes": int(a["n_episodes"]), "horizon": int(horizon)}


# (module, attribute, attrs function); a dotted attribute names a method
TARGETS = [
    ("cli", "run", None),
    ("config", "load_config", None),
    ("primitives", "socially_optimal_effort", None),
    ("mdp", "build_action_grid", None),
    ("mdp", "build_state_space", None),
    ("mdp", "RegulationMdp.__init__", None),
    ("policy", "evaluate_policy", _n_states),
    ("policy", "evaluate_threshold_policy", _threshold_attrs),
    ("policy", "value_iteration", _n_states),
    ("policy", "policy_improvement_check", None),
    ("thresholds", "optimal_threshold", _n_states),
    ("thresholds", "design_backlash", None),
    ("thresholds", "overreaction_gap", None),
    ("thresholds", "static_optimal_effort", None),
    ("thresholds", "impossibility_report", None),
    ("simulate", "estimate_value", _rollout_attrs),
    ("simulate", "sample_trajectory", None),
    ("verification", "run_all", None),
    ("verification", "threshold_matches_brute_force", None),
    ("verification", "states_below_threshold_share_value", None),
    ("verification", "backlash_state_is_worst", None),
    ("verification", "effort_preference_signs_agree", None),
    ("verification", "static_fines_never_exceed_requirement", None),
    ("verification", "backlash_design_round_trip", None),
    ("verification", "weak_backlash_leaves_a_shortfall", None),
    ("verification", "one_requirement_cannot_serve_two_costs", None),
    ("verification", "monte_carlo_matches_analytic", None),
    ("verification", "numeric_hygiene", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op = None

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                rec[LAST] = len(spans)
                if attrs is not None:
                    rec[ATTRS] = attrs(*args, **kwargs)

        return traced

    def install(self):
        import regmdp

        modules = [m for key, m in sys.modules.items()
                   if (key == "regmdp" or key.startswith("regmdp.")) and m is not None]
        for module_name, attr, attrs in TARGETS:
            owner = getattr(regmdp, module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(f"{module_name}.{cls_name}", orig, attrs))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(f"{module_name}.{attr}", orig, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration(rec):
    return rec[END] - rec[START]


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [duration(rec) for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= duration(rec)
    return own


def layer_of(rec):
    return rec[NAME].split(".", 1)[0]


def op_metrics(spans, ops):
    """Per-layer metrics from the spans of a traced run.

    Counts and self time cover the spans of the `ops` traced workload ops
    (those whose op label is an int); the rest are medians over every
    solve, design, config load and rollout span of the run.
    """
    on_ops = [s for s in spans if isinstance(s[OP], int)]
    metrics = {}
    evals = [s for s in on_ops if s[NAME] == "policy.evaluate_policy"]
    metrics["policy.evaluate_policy.calls_per_op"] = len(evals) / ops
    metrics["policy.dense_solve_flops_per_op"] = sum(2.0 / 3.0 * s[ATTRS]["n"] ** 3
                                                     for s in evals) / ops
    metrics["primitives.socially_optimal_effort.calls"] = sum(
        s[NAME] == "primitives.socially_optimal_effort" for s in on_ops) / ops
    own = self_times(spans)
    for layer in LAYERS:
        busy = sum(own[i] for i, s in enumerate(spans)
                   if isinstance(s[OP], int) and layer_of(s) == layer)
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * busy / ops

    def children(i, name):
        return [s for s in spans[i + 1:spans[i][LAST]] if s[PARENT] == i and s[NAME] == name]

    solves = [i for i, s in enumerate(spans) if s[NAME] == "thresholds.optimal_threshold"]
    per_solve = [children(i, "policy.evaluate_threshold_policy") for i in solves]
    scanned = [sum(c[ATTRS]["on_grid"] for c in calls) for calls in per_solve]
    metrics["thresholds.evals_per_solve"] = median([len(c) for c in per_solve])
    metrics["thresholds.bisect_steps"] = median([len(c) - k for c, k in zip(per_solve, scanned)])
    metrics["thresholds.scan_useful_ratio"] = median([2.0 / k for k in scanned if k])

    designs = [i for i, s in enumerate(spans) if s[NAME] == "thresholds.design_backlash"]
    metrics["thresholds.design.probes"] = median(
        [len(children(i, "policy.evaluate_threshold_policy")) for i in designs])
    metrics["mdp.builds_per_design"] = median(
        [sum(s[NAME] == "mdp.RegulationMdp" for s in spans[i + 1:spans[i][LAST]]) for i in designs])
    metrics["thresholds.design.verify_ms"] = 1e3 * median(
        [duration(s) for i in designs for s in children(i, "thresholds.optimal_threshold")])

    loads = [duration(s) for s in spans if s[NAME] == "config.load_config"]
    metrics["config.load_config_ms"] = 1e3 * median(loads)
    optima = [duration(s) for s in spans if s[NAME] == "primitives.socially_optimal_effort"]
    metrics["primitives.socially_optimal_effort_ms"] = 1e3 * median(optima)

    rollouts = [s for s in spans if s[NAME] == "simulate.estimate_value"]
    metrics["simulate.horizon"] = median([s[ATTRS]["horizon"] for s in rollouts])
    metrics["simulate.episode_steps_per_s"] = (
        sum(s[ATTRS]["episodes"] * s[ATTRS]["horizon"] for s in rollouts)
        / sum(duration(s) for s in rollouts))
    return metrics


def median(values):
    return statistics.median(values) if values else 0.0
