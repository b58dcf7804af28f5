"""Fixed per-layer probes run by every traced run, whatever the workload.

Each probe calls one public function at a fixed size (11, 101 and 1001
states for the ladder ROADMAP aim 1 asks for) with the tracer installed, so
its spans also feed the per-layer counts. The n=1001 threshold solve takes
20 to 40 s on a 2-core Xeon, so it runs once per traced run.
"""

import contextlib
import io
import statistics
from time import perf_counter

import regmdp
from regmdp import cli

from run import child_seconds
from tracing import ATTRS, LAST, NAME, OP, duration

TAU = 0.45
# (label, subcommand, config, expected exit code): each subcommand on the
# canonical demo, the design-feasible demo's solve and design, and ROADMAP
# item 4's {"k": 2000}, which load_config accepts and which must not exit 3
CLI_OPS = [
    ("canonical.welfare", "welfare", "demos/canonical.json", 0),
    ("canonical.solve", "solve", "demos/canonical.json", 0),
    ("canonical.design-backlash", "design-backlash", "demos/canonical.json", 1),
    ("canonical.static", "static", "demos/canonical.json", 0),
    ("canonical.impossibility", "impossibility", "demos/canonical.json", 0),
    ("canonical.simulate", "simulate", "demos/canonical.json", 0),
    ("canonical.verify", "verify", "demos/canonical.json", 0),
    ("design_feasible.solve", "solve", "demos/design_feasible.json", 0),
    ("design_feasible.design-backlash", "design-backlash", "demos/design_feasible.json", 0),
    ("k2000.solve", "solve", "k2000.json", 0),
]
IMPORT_TIME = ("import time; t = time.perf_counter(); import regmdp; "
               "print(time.perf_counter() - t)")


def _config(root, name, **overrides):
    return regmdp.load_config(str(root / "demos" / name), overrides)


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(tracer, root, tmp, smoke=False):
    """Run every probe; returns {metric name: value} in the per-layer units."""
    big = 101 if smoke else 1001  # the smoke run keeps the names, not the sizes
    ladder = {"n11": 11, "n101": 101, "n1001": big}
    metrics = {}

    imports = [child_seconds(["-c", IMPORT_TIME]) for _ in range(3)]
    metrics["cli.import_ms"] = 1e3 * statistics.median(imports)

    (tmp / "k2000.json").write_text('{"k": 2000}\n')
    unexpected = 0
    for label, command, config, exit_code in CLI_OPS:
        path = tmp / config if config == "k2000.json" else root / config
        argv = [command, "--config", str(path), "--out", str(tmp / f"ladder-{label}.csv")]
        tracer.op = "cli:" + label
        start = len(tracer.spans)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            unexpected += cli.run(argv) != exit_code
        metrics["cli.run_ms." + label] = 1e3 * duration(tracer.spans[start])
    # the k2000 solve exits 3 until ROADMAP item 4 is fixed; counted, not hidden
    metrics["cli.unexpected_exit_count"] = unexpected

    for label, n in ladder.items():
        tracer.op = "ladder:" + label
        config = _config(root, "canonical.json", state_count=n)
        metrics["mdp.build_ms." + label] = _timed(config.mdp, 3)
        mdp = config.mdp()
        metrics["policy.evaluate_threshold_policy_ms." + label] = _timed(
            lambda: regmdp.evaluate_threshold_policy(mdp, TAU), {11: 30, 101: 10}.get(n, 3))
        start = len(tracer.spans)
        regmdp.optimal_threshold(mdp, refine_tol=config["refine_tol"])
        solve = tracer.spans[start]
        metrics["thresholds.optimal_threshold_ms." + label] = 1e3 * duration(solve)
        evals = [s for s in tracer.spans[start + 1:solve[LAST]] if s[NAME] == "policy.evaluate_threshold_policy"]
        metrics["thresholds.scan_ms." + label] = 1e3 * sum(duration(s) for s in evals if s[ATTRS]["on_grid"])
        metrics["thresholds.bisect_ms." + label] = 1e3 * sum(duration(s) for s in evals if not s[ATTRS]["on_grid"])
        policy = regmdp.Policy.threshold(mdp.space, TAU)
        t0 = perf_counter()
        regmdp.estimate_value(mdp, policy, n_episodes=8192, seed=n)
        metrics["simulate.batch_ms." + label] = 1e3 * (perf_counter() - t0)

    for label, n in (("n31_g099", 31), ("n101_g099", 31 if smoke else 101)):
        tracer.op = "ladder:" + label
        mdp = _config(root, "canonical.json", state_count=n, gamma=0.99).mdp()
        t0 = perf_counter()
        regmdp.value_iteration(mdp)
        metrics["policy.value_iteration_ms." + label] = 1e3 * (perf_counter() - t0)

    for label, n in (("n11", 11), ("n101", 101)):
        tracer.op = "ladder:design-" + label
        config = _config(root, "design_feasible.json", state_count=n)
        t0 = perf_counter()
        regmdp.design_backlash(config.welfare(), config["gamma"], config.state_space(),
                               config.drift_model(n), tol=config["refine_tol"],
                               e_max=config["effort_max"], action_step=config["action_step"])
        metrics["thresholds.design_backlash_ms." + label] = 1e3 * (perf_counter() - t0)
    tracer.op = None
    return metrics


def cli_span_metrics(spans):
    """Per-layer metrics read from the spans of the ladder's CLI calls."""
    metrics = {}
    static_run = _cli_span(spans, "canonical.static")
    static = [s for s in spans[static_run + 1:spans[static_run][LAST]]
              if s[NAME] == "thresholds.static_optimal_effort"]
    metrics["thresholds.static_optimal_effort.calls"] = len(static)
    metrics["thresholds.static_optimal_effort_ms"] = 1e3 * statistics.median(map(duration, static))
    report = _cli_span(spans, "canonical.impossibility")
    metrics["thresholds.impossibility_report_ms"] = 1e3 * sum(
        duration(s) for s in spans[report + 1:spans[report][LAST]]
        if s[NAME] == "thresholds.impossibility_report")
    verify = _cli_span(spans, "canonical.verify")
    inner = spans[verify + 1:spans[verify][LAST]]
    run_all = next(s for s in inner if s[NAME] == "verification.run_all")
    for s in inner:
        if s[NAME].startswith("verification.") and s[NAME] != "verification.run_all":
            metrics[s[NAME] + "_ms"] = 1e3 * duration(s)
    oracle = sum(duration(s) for s in inner if s[NAME] == "policy.value_iteration")
    metrics["verification.oracle_share"] = oracle / duration(run_all)
    return metrics


def _cli_span(spans, label):
    return next(i for i, s in enumerate(spans) if s[OP] == "cli:" + label and s[NAME] == "cli.run")
