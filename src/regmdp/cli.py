"""Command-line front end.

Every subcommand reads a flat JSON config (defaults apply when omitted),
writes its table as CSV, and drops a JSON sidecar with the resolved
settings, library versions, and headline results so a run can be replayed
byte-for-byte.

Exit codes: 0 clean, 1 a verdict or feasibility check failed, 2 bad
configuration or arguments, a model the config cannot build, or an --out
path that cannot be written, 3 unexpected internal error. `simulate` and
`verify` both run their Monte Carlo estimates at the configured `episodes`.
"""

import argparse
import csv
import io
import json
import platform
import sys
import time
import traceback

import numpy as np

from . import __version__
from .config import Config, load_config
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    FeasibilityError,
    HorizonTooShortError,
    InsufficientMaxEffortError,
)
from .mdp import Policy, build_action_grid
from .policy import evaluate_threshold_policy
from .primitives import socially_optimal_effort
from .simulate import _Z_95, agreement_z, estimate_value
from .thresholds import (
    design_backlash,
    impossibility_report,
    optimal_threshold,
    static_expected_utility,
    static_optimal_effort,
)
from .verification import run_all


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def emit_csv(rows: list, path: str | None = None, fieldnames: list | None = None) -> str:
    """Render homogeneous dict rows as CSV text, optionally writing a file.

    Floats are written with 12 significant digits, so re-emitting a parsed
    table reproduces it exactly. An empty table needs explicit fieldnames
    for its header-only output.
    """
    if rows:
        keys = list(rows[0].keys())
        if fieldnames is not None and list(fieldnames) != keys:
            raise ValueError("fieldnames disagree with the first row's keys")
        for i, row in enumerate(rows):
            if list(row.keys()) != keys:
                raise ValueError(f"row {i} keys differ from row 0; table is not homogeneous")
    else:
        if fieldnames is None:
            raise ValueError("an empty table needs explicit fieldnames for its header")
        keys = list(fieldnames)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _format_cell(v) for k, v in row.items()})
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # strict JSON has no NaN/Infinity token
        return float(value) if np.isfinite(value) else None
    return value


def write_meta(path: str, command: str, config: Config, results: dict,
               row_count: int, elapsed: float) -> None:
    meta = {
        "command": command,
        "config": _jsonify(dict(config)),
        "elapsed_seconds": round(elapsed, 6),
        "results": _jsonify(results),
        "row_count": row_count,
        "versions": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "regmdp": __version__,
        },
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (rows, fieldnames, results, exit_code)
# ---------------------------------------------------------------------------


def _cmd_welfare(config: Config):
    welfare = config.welfare()
    grid = build_action_grid(config["effort_max"], config["action_step"]).efforts
    ew = welfare.expected_welfare(grid)
    marginal = welfare.marginal_welfare(grid)
    harm = welfare.harm.prob(grid)
    cost = welfare.cost.value(grid)
    rows = [
        {
            "effort": float(grid[i]),
            "harm_prob": float(harm[i]),
            "cost": float(cost[i]),
            "expected_welfare": float(ew[i]),
            "marginal_welfare": float(marginal[i]),
        }
        for i in range(grid.size)
    ]
    e_star = socially_optimal_effort(welfare, e_max=config["effort_max"])
    results = {
        "optimal_effort": e_star,
        "welfare_at_optimum": float(welfare.expected_welfare(e_star)),
        "harm_at_optimum": float(welfare.harm.prob(e_star)),
        "cost_at_optimum": float(welfare.cost.value(e_star)),
    }
    return rows, None, results, 0


def _cmd_solve(config: Config):
    mdp = config.mdp()
    stable = optimal_threshold(mdp, refine_tol=config["refine_tol"])
    vf = evaluate_threshold_policy(mdp, stable)
    policy = Policy.threshold(mdp.space, stable)
    rows = [
        {
            "state_effort": float(mdp.space.levels[i]),
            "policy_effort": float(policy.efforts[i]),
            "value": float(vf[i]),
        }
        for i in range(mdp.space.n_states)
    ]
    e_star = socially_optimal_effort(config.welfare(), e_max=config["effort_max"])
    results = {
        "stable_effort": stable,
        "optimal_effort": e_star,
        "overreaction_gap": stable - e_star,
        "value_at_backlash": float(vf.at_backlash),
        "gamma": config["gamma"],
    }
    return rows, None, results, 0


_DESIGN_FIELDS = ["target_effort", "designed_backlash", "achieved_threshold",
                  "residual", "degenerate"]


def _cmd_design_backlash(config: Config):
    welfare = config.welfare()
    template = config.state_space()
    drift = config.drift_model(template.n_states)
    try:
        design = design_backlash(
            welfare, config["gamma"], template, drift,
            tol=config["refine_tol"], e_max=config["effort_max"],
            action_step=config["action_step"],
        )
    except InsufficientMaxEffortError as err:
        print(f"design failed: {err}", file=sys.stderr)
        results = {
            "feasible": False,
            "required_lifetime_cost": err.k_constant,
            "cost_at_ceiling": err.cost_at_max,
        }
        return [], _DESIGN_FIELDS, results, 1
    except ConstructionError as err:
        print(f"design failed: {err}", file=sys.stderr)
        return [], _DESIGN_FIELDS, {"feasible": False, "reason": str(err)}, 1
    rows = [
        {
            "target_effort": design.target_e_star,
            "designed_backlash": design.designed_e_h,
            "achieved_threshold": design.achieved_threshold,
            "residual": design.residual,
            "degenerate": design.degenerate,
        }
    ]
    results = dict(rows[0], feasible=True)
    return rows, None, results, 0


def _cmd_static(config: Config):
    regime = config.static_regime()
    cost = config.cost()
    space = config.state_space()
    actions = build_action_grid(config["effort_max"], config["action_step"], space.levels)
    rows = []
    for e_c in space.levels:
        induced = static_optimal_effort(regime, cost, float(e_c), actions)
        rows.append(
            {
                "required_effort": float(e_c),
                "induced_effort": induced,
                "expected_utility": float(
                    static_expected_utility(regime, cost, induced, float(e_c))
                ),
                "shortfall": float(e_c) - induced,
            }
        )
    return rows, None, {}, 0


def _cmd_impossibility(config: Config):
    report = impossibility_report(
        config.harm(), config["damage"], config.cost(), config.second_cost(),
        config["gamma"], e_max=config["effort_max"], candidate_step=config["action_step"],
    )
    rows = report.records()
    results = {
        "optimal_effort_1": report.e_star_1,
        "optimal_effort_2": report.e_star_2,
        "degenerate": report.degenerate,
        "no_single_requirement_fits_both": report.conclusion,
        "attain_tol": report.attain_tol,
    }
    code = 0 if (report.conclusion or report.degenerate) else 1
    return rows, None, results, code


def _cmd_simulate(config: Config):
    mdp = config.mdp()
    stable = optimal_threshold(mdp, refine_tol=config["refine_tol"])
    policy = Policy.threshold(mdp.space, stable)
    start = config["start_state"]
    start_level = mdp.space.backlash_level if start is None else float(start)
    estimate = estimate_value(
        mdp, policy, start_level=start_level,
        n_episodes=config["episodes"], horizon=config["horizon"] or None, seed=config["seed"],
    )
    analytic = float(evaluate_threshold_policy(mdp, stable)[mdp.space.index_of(start_level)])
    z = agreement_z(estimate, analytic)
    rows = [
        {
            "episodes": config["episodes"],
            "horizon": estimate.horizon,
            "start_effort": start_level,
            "estimate": estimate.mean,
            "half_width_95": estimate.half_width_95,
            "truncation_bound": estimate.truncation_bound,
            "analytic_value": analytic,
            "abs_error": abs(estimate.mean - analytic),
            "z_score": z,
            "within_bound": abs(z) <= _Z_95,
        }
    ]
    results = dict(rows[0], stable_effort=stable, seed=config["seed"])
    # a 95 percent miss is routine; only an excess beyond 4 standard errors fails the run
    return rows, None, results, 0 if abs(z) <= 4.0 else 1


def _cmd_verify(config: Config):
    suites = run_all(
        n_scenarios=config["verify_scenarios"], seed=config["seed"],
        mc_episodes=config["episodes"],
    )
    rows = []
    for suite in suites:
        print(suite.summary())
        rows.append(
            {
                "suite": suite.name,
                "checks": suite.checks,
                "failures": len(suite.failures),
                "ok": suite.ok,
            }
        )
    results = {
        "suites": len(suites),
        "all_ok": all(s.ok for s in suites),
        "failures": [f for s in suites for f in s.failures],
    }
    return rows, None, results, 0 if results["all_ok"] else 1


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "welfare": (_cmd_welfare, "sweep welfare over effort and locate the social optimum"),
    "solve": (_cmd_solve, "stable threshold effort and state values for the dynamic regime"),
    "design-backlash": (_cmd_design_backlash,
                        "pick the backlash level that makes the optimum stable"),
    "static": (_cmd_static, "induced effort under audit-and-fine regulation, per requirement"),
    "impossibility": (_cmd_impossibility,
                      "show no single requirement serves two cost structures"),
    "simulate": (_cmd_simulate, "Monte Carlo check of the stable policy's value"),
    "verify": (_cmd_verify, "run the randomized verification suites"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmdp",
        description="solver for effort regulation with harm-triggered backlash",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", metavar="PATH", help="JSON settings file")
        p.add_argument("--out", metavar="PATH",
                       help="CSV output path; a .meta.json sidecar lands next to it")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--episodes", type=int,
                       help="override the configured episode count")
    return parser


def run(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
    try:
        config = load_config(args.config, overrides)
        started = time.perf_counter()
        handler, _ = _COMMANDS[args.command]
        rows, fields, results, code = handler(config)
        elapsed = time.perf_counter() - started
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ConstructionError, DomainError, FeasibilityError, HorizonTooShortError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3

    if args.out:
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        try:
            emit_csv(rows, args.out, fields)
            write_meta(base + ".meta.json", args.command, config, results,
                       len(rows), elapsed)
        except OSError as err:  # names the path it could not write
            print(f"output error: {err}", file=sys.stderr)
            return 2
        summary = ", ".join(f"{k}={_format_cell(v)}" for k, v in results.items()
                            if not isinstance(v, (list, dict)))
        print(f"{args.command}: {summary}")
        print(f"wrote {args.out} and {base}.meta.json")
    elif args.command != "verify":
        sys.stdout.write(emit_csv(rows, None, fields))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
