"""Configuration loading, CSV emission, and the command-line surface."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import regmdp.policy
import regmdp.thresholds
from regmdp import ConfigError, DEFAULTS, SuiteResult, cli, load_config
from regmdp.cli import emit_csv, run
from regmdp.policy import ValueFunction

E_STAR = 0.6284733737717892
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_defaults_round_trip(self):
        cfg = load_config()
        assert dict(cfg) == dict(DEFAULTS)
        assert isinstance(cfg["episodes"], int)

    def test_file_and_overrides_merge(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"gamma": 0.5, "seed": 1})
        cfg = load_config(path, {"seed": 9})
        assert cfg["gamma"] == 0.5
        assert cfg["seed"] == 9

    def test_all_violations_are_collected(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {"h_min": -1, "gamma": 2.0, "bogus": 1, "state_count": 1},
        )
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = str(exc.value)
        assert len(exc.value.violations) >= 4
        for needle in ("h_min", "gamma", "bogus", "state_count"):
            assert needle in text

    def test_unknown_override_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown key: nope"):
            load_config(None, {"nope": 3})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/does/not/exist.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="single JSON object"):
            load_config(str(path))

    def test_cross_field_rules(self):
        with pytest.raises(ConfigError, match="must not exceed"):
            load_config(None, {"backlash_effort": 3.0})
        with pytest.raises(ConfigError, match="below backlash_effort"):
            load_config(None, {"state_min": 1.0})
        with pytest.raises(ConfigError, match="fail_model"):
            load_config(None, {"fail_model": "nope"})
        with pytest.raises(ConfigError, match="start_state"):
            load_config(None, {"start_state": "hmm"})

    def test_integer_keys_are_coerced(self):
        cfg = load_config(None, {"episodes": 5000.0})
        assert cfg["episodes"] == 5000 and isinstance(cfg["episodes"], int)
        with pytest.raises(ConfigError, match="integer"):
            load_config(None, {"episodes": 5000.5})

    def test_an_infeasible_design_target_loads_without_warning(self, capsys):
        # the default ceiling cannot hold the target; only design-backlash
        # reports that, as a failed design, never as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_config()
            assert run(["design-backlash"]) == 1
        assert "K=" in capsys.readouterr().err

    def test_builders_assemble_the_canonical_model(self):
        cfg = load_config()
        mdp = cfg.mdp()
        assert mdp.space.n_states == 11
        assert mdp.space.backlash_level == 1.0
        assert mdp.gamma == 0.9
        assert mdp.actions.e_max == 1.0
        assert cfg.welfare().damage == 2.0
        regime = cfg.static_regime()
        assert regime.audit_prob == 0.5 and regime.fine == 10.0


class TestEmitCsv:
    def test_reemitting_parsed_output_is_identical(self):
        rows = [
            {"a": 0.1234567890123456, "b": 7, "c": True, "d": "x"},
            {"a": 2.5e-07, "b": -1, "c": False, "d": ""},
        ]
        text1 = emit_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text1)))
        rows2 = [
            {"a": float(r["a"]), "b": int(r["b"]), "c": r["c"] == "True", "d": r["d"]}
            for r in parsed
        ]
        assert emit_csv(rows2) == text1

    def test_twelve_significant_digits(self):
        text = emit_csv([{"x": 1.0 / 3.0}])
        assert "0.333333333333" in text

    def test_empty_table_needs_fieldnames(self):
        assert emit_csv([], fieldnames=["x", "y"]) == "x,y\r\n"
        with pytest.raises(ValueError):
            emit_csv([])

    def test_inhomogeneous_rows_are_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            emit_csv([{"a": 1}, {"b": 2}])

    def test_none_becomes_empty_cell(self):
        assert emit_csv([{"a": None, "b": 1}]) == "a,b\r\n,1\r\n"

    def test_writes_the_file_when_asked(self, tmp_path):
        out = tmp_path / "t.csv"
        text = emit_csv([{"a": 1}], str(out))
        assert out.read_bytes() == text.encode()


class TestCliCommands:
    def test_welfare_writes_csv_and_meta(self, tmp_path, capsys):
        out = tmp_path / "welfare.csv"
        assert run(["welfare", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "effort,harm_prob,cost,expected_welfare,marginal_welfare"
        assert len(lines) == 1002
        meta = json.loads((tmp_path / "welfare.meta.json").read_text())
        assert meta["command"] == "welfare"
        assert meta["results"]["optimal_effort"] == pytest.approx(E_STAR, abs=1e-5)
        assert meta["config"]["gamma"] == 0.9
        assert meta["row_count"] == 1001
        assert "numpy" in meta["versions"]

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["solve", "--out", str(a)]) == 0
        assert run(["solve", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_goes_to_stdout_without_out(self, capsys):
        assert run(["solve"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state_effort,policy_effort,value"
        assert len(lines) == 12

    def test_solve_reports_the_stable_effort(self, tmp_path):
        out = tmp_path / "solve.csv"
        assert run(["solve", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "solve.meta.json").read_text())
        assert meta["results"]["stable_effort"] == pytest.approx(0.4508, abs=1e-3)
        assert meta["results"]["overreaction_gap"] < 0

    def test_solve_survives_a_harm_slope_that_underflows(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"k": 2000})
        out = tmp_path / "solve.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "solve.meta.json").read_text())
        assert 0.0 < meta["results"]["stable_effort"] < 0.1

    def test_solve_with_myopic_platform(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"gamma": 0})
        out = tmp_path / "solve.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "solve.meta.json").read_text())
        assert meta["results"]["stable_effort"] == 0.0

    def test_myopic_solve_writes_no_negative_zero(self, tmp_path):
        # the held bottom state costs c(0) = 0, and -c / 1 is -0.0 in floats
        cfg = write_json(tmp_path / "c.json", {"gamma": 0})
        out = tmp_path / "solve.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 0
        cells = [cell for row in csv.reader(io.StringIO(out.read_text())) for cell in row]
        assert cells[3:6] == ["0", "0", "0"]
        assert "-0" not in cells

    def test_design_backlash_infeasible_at_default_ceiling(self, tmp_path, capsys):
        out = tmp_path / "design.csv"
        assert run(["design-backlash", "--out", str(out)]) == 1
        assert "K=" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 1  # header only
        meta = json.loads((tmp_path / "design.meta.json").read_text())
        assert meta["results"]["feasible"] is False
        assert meta["results"]["required_lifetime_cost"] == pytest.approx(9.2538, abs=1e-3)
        assert meta["results"]["cost_at_ceiling"] == pytest.approx(0.6)

    @pytest.mark.parametrize("command, code", [("solve", 0), ("design-backlash", 1)])
    def test_patient_platform_with_costly_effort(self, tmp_path, capsys, command, code):
        # values reach -7.55e5, where one ulp is 1.2e-10: a dense solve's
        # residual of about 1e-10 is rounding at that scale, not a broken solve
        cfg = write_json(tmp_path / "c.json", {
            "gamma": 0.9999, "effort_max": 5, "backlash_effort": 5, "cost_a": 3,
        })
        assert run([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == code
        assert "Bellman residual" not in capsys.readouterr().err

    def test_design_backlash_with_room_succeeds(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"effort_max": 2.5})
        out = tmp_path / "design.csv"
        assert run(["design-backlash", "--config", cfg, "--out", str(out)]) == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert float(row["designed_backlash"]) > float(row["target_effort"])
        assert abs(float(row["achieved_threshold"]) - float(row["target_effort"])) <= 2e-3
        assert row["degenerate"] == "False"

    @pytest.mark.parametrize("refine_tol, code", [(0.1, 2), (0.05, 0)])
    def test_design_backlash_with_a_coarse_refine_tol(self, tmp_path, capsys, refine_tol, code):
        # at 0.1 the bisection leaves a level whose stable effort misses the
        # target by more than two action steps: an input error, not a crash
        cfg = write_json(tmp_path / "c.json", {"effort_max": 2.5, "refine_tol": refine_tol})
        out = tmp_path / "design.csv"
        assert run(["design-backlash", "--config", cfg, "--out", str(out)]) == code
        if code == 2:
            assert "refine_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("state_min, code", [(0.65, 0), (0.67, 0), (0.69, 1), (0.7, 1), (0.9, 1)])
    def test_design_backlash_with_a_high_template(self, tmp_path, capsys, state_min, code):
        # from 0.69 up, every fixed level sits above the target 0.628, so no
        # state can hold it: a failed design, not an internal error
        cfg = write_json(tmp_path / "c.json", {"state_min": state_min, "effort_max": 2.5})
        out = tmp_path / "design.csv"
        assert run(["design-backlash", "--config", cfg, "--out", str(out)]) == code
        meta = json.loads((tmp_path / "design.meta.json").read_text())
        assert meta["results"]["feasible"] is (code == 0)
        if code == 0:
            row = next(csv.DictReader(io.StringIO(out.read_text())))
            assert abs(float(row["achieved_threshold"]) - float(row["target_effort"])) <= 2e-3
        else:
            assert "fixed levels start at" in capsys.readouterr().err

    def test_design_backlash_zero_damage_is_degenerate(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"damage": 0})
        out = tmp_path / "design.csv"
        assert run(["design-backlash", "--config", cfg, "--out", str(out)]) == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert row["degenerate"] == "True"
        assert row["residual"] == "nan"
        meta = json.loads((tmp_path / "design.meta.json").read_text())
        assert meta["results"]["residual"] is None  # NaN has no JSON token

    def test_static_requirement_caps_effort(self, tmp_path):
        out = tmp_path / "static.csv"
        assert run(["static", "--out", str(out)]) == 0
        for row in csv.DictReader(io.StringIO(out.read_text())):
            assert float(row["induced_effort"]) <= float(row["required_effort"]) + 1e-12
        meta = json.loads((tmp_path / "static.meta.json").read_text())
        assert meta["results"] == {"sweep_draws": DEFAULTS["static_draws"]}

    def test_static_rejects_a_zero_failure_probability(self, tmp_path, capsys):
        # the step family needs p0 in (0, 1], whichever family is configured
        cfg = write_json(tmp_path / "c.json", {"fail_p0": 0, "fail_model": "ramp"})
        assert run(["static", "--config", cfg]) == 2
        assert "fail_p0" in capsys.readouterr().err

    def test_impossibility_reaches_its_conclusion(self, tmp_path):
        out = tmp_path / "imp.csv"
        assert run(["impossibility", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "imp.meta.json").read_text())
        assert meta["results"]["no_single_requirement_fits_both"] is True
        assert meta["row_count"] == 1003

    def test_simulate_agrees_with_the_solver(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"episodes": 20000, "seed": 3})
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert abs(float(row["z_score"])) <= 4.0
        assert int(row["episodes"]) == 20000

    @pytest.mark.parametrize("settings", [
        {"drift": 0}, {"gamma": 0}, {"drift": 0, "gamma": 0.5}, {"drift": 0, "gamma": 0.99},
    ])
    def test_simulate_accepts_a_chain_with_identical_episodes(self, tmp_path, settings):
        # every episode returns the same value, so the only error left is the
        # truncation bias plus rounding, which must not read as a failed check
        cfg = write_json(tmp_path / "c.json", settings)
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--config", cfg, "--episodes", "2000", "--out", str(out)]) == 0
        row = next(csv.DictReader(io.StringIO(out.read_text())))
        assert row["within_bound"] == "True"
        z = float(row["z_score"])
        assert np.isfinite(z) and abs(z) <= 4.0

    def test_simulate_rejects_short_horizons(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"horizon": 5, "episodes": 100})
        assert run(["simulate", "--config", cfg]) == 2
        assert "horizon" in capsys.readouterr().err

    def test_verify_prints_one_line_per_suite(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"verify_scenarios": 2})
        assert run(["verify", "--config", cfg]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 10
        assert all(l.startswith("pass ") for l in lines)

    def test_verify_runs_its_monte_carlo_suite_at_the_configured_episodes(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def fake_run_all(**kwargs):
            calls.append(kwargs)
            return [SuiteResult("stub", checks=1)]

        monkeypatch.setattr(cli, "run_all", fake_run_all)
        cfg = write_json(tmp_path / "c.json", {"episodes": 5000})
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "v.csv")]) == 0
        assert [c["mc_episodes"] for c in calls] == [5000]
        meta = json.loads((tmp_path / "v.meta.json").read_text())
        assert meta["config"]["episodes"] == 5000

    @pytest.mark.parametrize(
        "module, name, fake, message",
        [
            # more effort always pays, so static enforcement overshoots the requirement
            ("thresholds", "static_expected_utility",
             lambda regime, cost, e, e_c: np.asarray(e, dtype=float), "above the requirement"),
            # the dense solve that the held-state suite reads loses the shared value
            ("verification", "evaluate_policy",
             lambda mdp, policy: ValueFunction(mdp.space, np.arange(mdp.space.n_states) - 50.0),
             "states held at the threshold diverged"),
        ],
        ids=["static-overshoot", "held-state-spread"],
    )
    def test_verify_reports_a_breached_postcondition_as_a_failed_suite(
        self, tmp_path, monkeypatch, module, name, fake, message
    ):
        monkeypatch.setattr(getattr(regmdp, module), name, fake)
        cfg = write_json(tmp_path / "c.json", {"verify_scenarios": 2, "episodes": 2000})
        out = tmp_path / "v.csv"
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 1
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 10
        assert any(row["ok"] == "False" for row in rows)
        meta = json.loads((tmp_path / "v.meta.json").read_text())
        assert meta["results"]["all_ok"] is False
        assert any(message in failure for failure in meta["results"]["failures"])

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"gamma": 5})
        assert run(["solve", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_removed_value_tol_is_an_unknown_key(self, tmp_path, capsys):
        # nothing ever read value_tol, so a config that still sets it fails loudly
        cfg = write_json(tmp_path / "c.json", {"value_tol": 1e-10})
        assert run(["solve", "--config", cfg]) == 2
        assert "unknown key: value_tol" in capsys.readouterr().err

    def test_seed_override_lands_in_the_meta(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["welfare", "--out", str(out), "--seed", "7"]) == 0
        meta = json.loads((tmp_path / "w.meta.json").read_text())
        assert meta["config"]["seed"] == 7

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


def run_in_child(*argv, timeout=60):
    """Run Python with these arguments in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, timeout=timeout,
                          capture_output=True, text=True)


class TestCliInAFreshProcess:
    @pytest.mark.parametrize("command, settings", [
        ("solve", {"refine_tol": 1e-20}),
        ("design-backlash", {"refine_tol": 1e-20, "effort_max": 2.5}),
    ])
    def test_tolerance_below_float_spacing_terminates(self, tmp_path, command, settings):
        # a bisection that waits for hi - lo <= 1e-20 never stops on its own;
        # the timeout turns such a regression into a failure, not a hang
        cfg = write_json(tmp_path / "c.json", settings)
        code = "import sys; from regmdp.cli import run; sys.exit(run(sys.argv[1:]))"
        done = run_in_child("-c", code, command, "--config", cfg)
        assert done.returncode == 0, done.stderr

    def test_runs_without_scipy(self, tmp_path):
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any import of scipy now raises\n"
            "from regmdp.cli import run\n"
            "codes = {c: run([c, '--out', f'{sys.argv[1]}/{c}.csv'])\n"
            "         for c in ('welfare', 'solve', 'design-backlash')}\n"
            "print(json.dumps(codes))\n"
        )
        done = run_in_child("-c", code, str(tmp_path))
        assert done.returncode == 0, done.stderr
        codes = json.loads(done.stdout.splitlines()[-1])
        assert codes == {"welfare": 0, "solve": 0, "design-backlash": 1}
        for command in codes:
            meta = json.loads((tmp_path / f"{command}.meta.json").read_text())
            assert sorted(meta["versions"]) == ["numpy", "python", "regmdp"]

    @pytest.mark.parametrize("where, code", [("missing/w.csv", 2), ("w.csv", 0)])
    def test_main_exits_two_when_out_cannot_be_written(self, tmp_path, where, code):
        # the computation succeeds either way; only writing its CSV can fail
        out = tmp_path / where
        done = run_in_child("-m", "regmdp.cli", "welfare", "--out", str(out))
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        if code == 2:
            assert done.stderr.startswith("output error: ") and str(out) in done.stderr
        assert out.exists() == (code == 0)

    def test_import_leaves_scipy_unloaded(self):
        done = run_in_child("-c", "import sys, regmdp.cli; print('scipy' in sys.modules)")
        assert done.stdout.strip() == "False", done.stderr
