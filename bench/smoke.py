"""Self-test of the benchmark at a tiny size with a fixed seed.

    python3 bench/smoke.py

For every workload it runs bench/run.py untraced, traced, and untraced with
the first op judged against a deliberately wrong expectation, and asserts
that:
- the last stdout line is one JSON object with exactly the keys the result
  format fixes;
- every end-to-end metric of BENCHMARK.json is printed, with its unit, by
  the untraced run, and every per-layer metric by the traced run;
- the wrong expectation is counted: one more failed op, `correct` false and
  `ok_ratio` below 1;
and that a copy holding only BENCHMARK.json and the benchmark's files
exits non-zero without printing a result. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORKLOADS

SEED = 7


def run(workload, *flags, cwd=ROOT, check=True):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--smoke", *flags]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    if not check:
        return proc
    assert proc.returncode == 0, f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def assert_metrics(result, specs, label):
    metrics = result["metrics"]
    names = {spec["name"] for spec in specs}
    assert set(metrics) == names, (
        f"{label}: missing {sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}")
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], f"{label}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {spec['name']} {got}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        plain = run(workload, "--trace", "0")
        assert_metrics(plain, bench["end_to_end"], workload)
        ok = plain["metrics"]["ok_ratio"]["value"]
        assert abs(ok - (1 - plain["failed"] / plain["attempted"])) < 1e-12
        assert plain["failed"] == 0 and plain["correct"], (workload, plain)

        traced = run(workload, "--trace", "1")
        assert_metrics(traced, bench["per_layer"], workload + " traced")
        assert traced["failed"] == 0 and traced["correct"], (workload, traced)
        # the {"k": 2000} solve (ROADMAP item 4) exits 3 where 0 is expected
        exits = traced["metrics"]["cli.unexpected_exit_count"]["value"]
        print(f"{workload}: {exits} CLI call(s) with an unexpected exit code")

        tampered = run(workload, "--trace", "0", "--tamper")
        assert tampered["failed"] == plain["failed"] + 1, (workload, tampered["failed"])
        assert not tampered["correct"]
        assert tampered["metrics"]["ok_ratio"]["value"] < 1.0
        print(f"ok {workload}")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["workloads"][0]["name"], "--trace", "0", cwd=tmp, check=False)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok bare copy exits", proc.returncode)


if __name__ == "__main__":
    main()
