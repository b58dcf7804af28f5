#!/usr/bin/env python3
"""regmdp benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload solve-sweep --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/`. One process drives a closed loop with one caller that calls the
package directly. BLAS threads are capped at the CPU count.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run, which also
reports the tracing overhead. Earlier lines describe the environment and the
run; a JSON record with the samples and the environment lands in
`.bench_out/`. See bench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("solve-sweep", "monte-carlo")
SETUP_SAMPLES = 5  # fresh-process set-ups per run, on both sides of the timed phase
TRACED_OPS = 10  # in-process inputs a traced run times untraced and traced


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs for the self-test; the numbers mean nothing")
    p.add_argument("--tamper", action="store_true",
                   help="judge the first op against a wrong expectation (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def checkout_problem():
    for need in ("src/regmdp/__init__.py", "demos/canonical.json", "demos/design_feasible.json",
                 "BENCHMARK.json"):
        if not (ROOT / need).is_file():
            return f"not a regmdp source checkout: {ROOT / need} is missing"
    return None


def setup(args):
    """Import the package, draw the inputs, build the models, warm up."""
    t0 = time.perf_counter()
    import regmdp  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.setup()
    return wl, time.perf_counter() - t0


def child_seconds(argv):
    """Run a Python child that prints a time in seconds last; return that time.

    A child killed by a signal (as the host's OOM killer does) is run once
    more; any other failure stops the run with the child's stderr.
    """
    for _ in range(2):
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode >= 0:
            break
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def phase(wl, items, seconds, min_ops):
    """Ops over items, in order and round again, until `seconds` have passed
    and min_ops are done.

    Returns (records, wall seconds); a record is (item index, latency,
    output, exception). Nothing but the op runs inside the loop.
    """
    records = []
    start = time.perf_counter()

    def finished():
        return len(records) >= min_ops and time.perf_counter() - start >= seconds

    while not finished():
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                out, exc = wl.run_op(item), None
            except Exception as err:  # counted as a failed op, never fatal
                out, exc = None, err
            records.append((i, time.perf_counter() - t0, out, exc))
            if finished():
                break
    return records, time.perf_counter() - start


def judge(wl, items, records, tamper=False):
    """Check every output after the timed phase; returns (failed, wrong, notes)."""
    failed = wrong = 0
    notes = []
    for k, (i, _, out, exc) in enumerate(records):
        if exc is not None:
            failed += 1
            notes.append(f"op {k}: {type(exc).__name__}: {exc}")
            continue
        problem = wl.check(items[i], out, tamper and k == 0)
        if problem:
            failed += 1
            wrong += 1
            notes.append(f"op {k}: wrong answer: {problem}")
    return failed, wrong, notes


def percentile(values, q):
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def environment(args):
    import numpy as np

    import regmdp

    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "regmdp": regmdp.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }
    try:
        import scipy

        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config is not a stable interface
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        info["commit"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        info["commit"] = "unknown"
    return info


def timed_run(args):
    # half the fresh-process set-ups run before the timed phase and half
    # after, so their median sees the machine as the timed phase does
    argv = [str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = [child_seconds(argv) for _ in range(SETUP_SAMPLES // 2)]
    wl, own = setup(args)
    samples.append(own)
    records, wall = phase(wl, wl.pool, args.seconds, wl.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, notes = judge(wl, wl.pool, records, args.tamper)
    samples += [child_seconds(argv) for _ in range(SETUP_SAMPLES - len(samples))]
    latencies = [r[1] for r in records]
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": len(records) / wall,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (len(records) - failed) / len(records),
    }
    detail = {"setup_samples_s": samples, "op_latencies_s": latencies, "wall_s": wall,
              "failed_ratio": failed / len(records)}
    return records, failed, wrong, notes, metrics, detail


def traced_run(args):
    import ladder
    import tracing

    wl, setup_s = setup(args)
    items = wl.pool[:TRACED_OPS]
    tracer = tracing.Tracer()
    plain, traced = [], []
    try:
        # each input runs untraced, then traced, so drift in machine speed
        # cancels out of the overhead ratio
        for i, item in enumerate(items):
            plain += [(i,) + r[1:] for r in phase(wl, [item], 0, 1)[0]]
            tracer.install()
            tracer.op = i
            traced += [(i,) + r[1:] for r in phase(wl, [item], 0, 1)[0]]
            tracer.op = None
            tracer.uninstall()
        failed, wrong, notes = judge(wl, items, plain, args.tamper)
        f2, w2, n2 = judge(wl, items, traced)
        failed, wrong, notes = failed + f2, wrong + w2, notes + n2
        tracer.install()
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
            metrics = ladder.run(tracer, ROOT, Path(tmp), args.smoke)
    finally:
        tracer.uninstall()
    records = plain + traced

    spans = tracer.spans
    ops = len(traced)
    metrics.update(ladder.cli_span_metrics(spans))
    metrics.update(tracing.op_metrics(spans, ops))
    plain_s = sum(r[1] for r in plain)
    traced_s = sum(r[1] for r in traced)
    metrics["trace.ops_per_s_untraced"] = len(plain) / plain_s
    metrics["trace.ops_per_s_traced"] = ops / traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["failed_ratio"] = failed / len(records)
    spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
    tracer.dump(spans_path)
    detail = {"setup_s": setup_s, "spans": str(spans_path.relative_to(ROOT)),
              "span_count": len(spans), "traced_ops": ops}
    return records, failed, wrong, notes, metrics, detail


def declared_units(trace):
    """{metric name: unit} as BENCHMARK.json declares them for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        print(setup(args)[1])
        return 0

    import warnings

    warnings.simplefilter("ignore", RuntimeWarning)  # load_config flags infeasible design targets
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run = traced_run if args.trace else timed_run
    records, failed, wrong, notes, metrics, detail = run(args)
    env = environment(args)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                         "measured and declared in BENCHMARK.json")
    record = {"environment": env, "metrics": metrics,
              "attempted": len(records), "failed": failed, "wrong": wrong, "notes": notes,
              **detail}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(env, sort_keys=True))
    for note in notes[:20]:
        print("# failed " + note)
    print(f"# {args.workload}: {len(records)} ops, {failed} failed "
          f"(failed_ratio {failed / len(records):.4g}), record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
