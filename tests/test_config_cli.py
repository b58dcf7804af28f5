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

import regmdp.config
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

    def test_unknown_keys_are_named_file_first_then_overrides(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"zeta": 1, "alpha": 2, "gamma": 2.0})
        with pytest.raises(ConfigError) as exc:
            load_config(path, {"nope": 3, "beta": 4})
        assert exc.value.violations == [
            "unknown key: alpha", "unknown key: zeta", "unknown key: beta", "unknown key: nope",
            "gamma must lie in [0, 1), got 2.0",
        ]

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

    def test_the_action_grid_cap_admits_exactly_a_million_steps(self):
        assert load_config(None, {"action_step": 1e-6})["action_step"] == 1e-6

    @pytest.mark.parametrize("settings, message", [
        ({"drift": -0.1}, "drift must lie in [0, 1], got -0.1"),
        ({"audit_prob": -1}, "audit_prob must lie in [0, 1], got -1"),
        # a key that fails its own rule takes no part in an ordering between keys
        ({"effort_max": -1}, "effort_max must be positive, got -1"),
        ({"h_max": 0}, "h_max must lie in (0, 1], got 0"),
        ({"state_count": 1.0}, "state_count must be at least 2, got 1"),
        ({"episodes": 1}, "episodes must be at least 2, got 1"),
        ({"horizon": -3.0}, "horizon must be non-negative, got -3"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"k": float("inf")}, "k must be finite, got inf"),
        ({"start_state": True}, "start_state must be a number or null, got True"),
        ({"effort_max": 2.0, "action_step": 1e-6}, "action_step (1e-06) must keep the action "
         "grid within its cap of 1,000,000 steps up to effort_max (2.0)"),
        # c(effort_max) and its slope overflow
        ({"cost_a": 1e300, "effort_max": 1e5, "action_step": 1.0}, "cost_a (1e+300) and "
         "cost_b (0.1) must keep c(effort_max), c'(effort_max) and c(effort_max) / (1 - gamma) "
         "finite at effort_max (100000.0) and gamma (0.9)"),
        # only the slope 2 a e + b overflows
        ({"cost_a2": 1e308, "gamma": 0}, "cost_a2 (1e+308) and cost_b2 (0.05) must keep "
         "c(effort_max), c'(effort_max) and c(effort_max) / (1 - gamma) finite at effort_max "
         "(1.0) and gamma (0)"),
        # only the first pair's discounted welfare loss overflows
        ({"damage": 1.99e307, "cost_a": 1e306}, "damage (1.99e+307) must keep |h'(0)| damage + "
         "c'(effort_max) and (h(0) damage + c(effort_max)) / (1 - gamma) finite for each cost "
         "pair at effort_max (1.0) and gamma (0.9)"),
        # the welfare slope overflows with both cost pairs: still one message
        ({"damage": 1e308}, "damage (1e+308) must keep |h'(0)| damage + c'(effort_max) and "
         "(h(0) damage + c(effort_max)) / (1 - gamma) finite for each cost pair at effort_max "
         "(1.0) and gamma (0.9)"),
    ])
    def test_one_mistake_gives_one_message(self, settings, message):
        with pytest.raises(ConfigError) as exc:
            load_config(None, settings)
        assert exc.value.violations == [message]

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

    @pytest.mark.parametrize("state_min, code", [(0.6, 0), (0.65, 1), (0.67, 1), (0.69, 1),
                                                  (0.7, 1), (0.9, 1)])
    def test_design_backlash_with_a_high_template(self, tmp_path, capsys, state_min, code):
        # from 0.65 up, every fixed level sits above the target 0.628, so no
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

    def test_design_backlash_at_gamma_1_minus_2_53(self, tmp_path):
        # the held and backlash values reach 4.4e15 here while the hold
        # margin stays O(1)
        cfg = write_json(tmp_path / "c.json", {"gamma": 0.9999999999999999, "effort_max": 2.5})
        assert run(["design-backlash", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 0
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert meta["results"]["achieved_threshold"] == pytest.approx(0.628473, abs=2e-3)

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
        assert meta["results"] == {}

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
        # a bound one rounding above the target prints all its digits, not 1e-06
        cfg = write_json(tmp_path / "c.json", {"gamma": 0.011809453889593476, "horizon": 3})
        assert run(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "input error: horizon 3 leaves a truncation bias bound of 1.0000000000000006e-06, "
            "above the target 1e-06; use horizon >= 4\n"
        )

    def test_simulate_is_not_told_to_use_the_horizon_it_ran(self, tmp_path, capsys):
        # the formula's horizon here missed the bound, and the message asked
        # for that same horizon; the searched one meets it, and the
        # episode-step cap refuses the run
        cfg = write_json(tmp_path / "c.json", {"cost_a": 6.78226840593168e294,
                                               "cost_b": 6.78226840593168e294,
                                               "gamma": 0.9999999999997865})
        assert run(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "input error: n_episodes (100000) * horizon (3384412475222684) at gamma "
        )

    def test_simulate_refuses_a_single_episode_by_its_key(self, capsys):
        # a confidence width needs two episodes; the config names the key
        assert run(["simulate", "--episodes", "1"]) == 2
        assert capsys.readouterr().err.startswith("config error: episodes must be at least 2")

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


SUBCOMMANDS = ["welfare", "solve", "design-backlash", "static", "impossibility", "simulate"]


class TestExitCodeSweep:
    """Configs written as JSON text end in exit 0, 1 or 2, never 3.

    Python's json reads the NaN and Infinity tokens, so they reach validation.
    """

    @staticmethod
    def run_text(tmp_path, capsys, command, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code = run([command, "--config", str(path), "--episodes", "2000"])
        return code, capsys.readouterr().err

    @staticmethod
    def run_warning_free(tmp_path, capsys, command, text):
        """Exit code, CSV cells from stdout and stderr, with any warning an error."""
        path = tmp_path / "c.json"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", str(path), "--episodes", "2000"])
        out, err = capsys.readouterr()
        return code, [cell for row in csv.reader(io.StringIO(out)) for cell in row], err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("text, key", [
        ('{"seed": Infinity}', "seed"),
        ('{"state_count": NaN}', "state_count"),
        ('{"seed": -1}', "seed"),
        ('{"k": Infinity}', "k"),
        ('{"start_state": NaN}', "start_state"),
        ('{"start_state": true}', "start_state"),
        ('{"fine": 1' + "0" * 400 + "}", "fine"),  # an int beyond the float range
    ])
    def test_a_rejected_config_exits_two(self, tmp_path, capsys, command, text, key):
        code, err = self.run_text(tmp_path, capsys, command, text)
        assert code == 2, err
        assert err.startswith(f"config error: {key} must be ")

    @pytest.mark.parametrize("command", SUBCOMMANDS + ["verify"])
    @pytest.mark.parametrize("text, keys", [
        # c(1) is finite but its slope and c(1) / (1 - gamma) are not; simulate
        # would otherwise run a 7,321,855-step horizon
        ('{"cost_a": 1e308, "gamma": 0.9999}', ("cost_a", "cost_b")),
        # only the discounted sum c(1) / (1 - gamma) overflows
        ('{"cost_b2": 1e305, "gamma": 0.9999}', ("cost_a2", "cost_b2")),
    ])
    def test_an_overflowing_cost_exits_two_without_a_warning(self, tmp_path, capsys, command,
                                                             text, keys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run_text(tmp_path, capsys, command, text)
        assert code == 2, err
        assert err.startswith(f"config error: {keys[0]} (")
        assert f" and {keys[1]} (" in err and "effort_max" in err and "gamma" in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("text, message", [
        ('{"static_draws": 100}', "unknown key: static_draws"),  # the removed sweep's key
        # 1e10 grid steps, 74.5 GiB: refused before any grid is built
        ('{"action_step": 1e-10}', "action_step (1e-10) must keep the action grid within its "
                                   "cap of 1,000,000 steps up to effort_max (1.0)"),
    ])
    def test_a_refused_config_builds_no_grid(self, tmp_path, capsys, monkeypatch, command,
                                             text, message):
        def no_grid(*args):
            raise AssertionError("build_action_grid called")

        for module in (cli, regmdp.config, regmdp.thresholds):
            monkeypatch.setattr(module, "build_action_grid", no_grid)
        code, err = self.run_text(tmp_path, capsys, command, text)
        assert code == 2, err
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("command, expected", [
        ("welfare", 0), ("solve", 2), ("design-backlash", 2),
        ("static", 2), ("impossibility", 0), ("simulate", 2),
    ])
    def test_a_state_space_that_cannot_be_built_is_an_input_error(self, tmp_path, capsys,
                                                                   command, expected):
        # the config loads, but linspace rounds neighbouring levels together;
        # welfare and impossibility build no state space
        text = '{"state_min": 0.5, "backlash_effort": 0.5000000000001, "state_count": 1000}'
        code, err = self.run_text(tmp_path, capsys, command, text)
        assert code == expected, err
        if expected == 2:
            assert err == "input error: levels must be strictly increasing\n"

    @pytest.mark.parametrize("command, text, expected", [
        # c(e_max) rounds to 0: the minimal horizon divided by it
        ("simulate", '{"cost_a": 5e-324, "cost_b": 5e-324, "effort_max": 0.4, '
                     '"backlash_effort": 0.4}', 0),
        # returns near -1e301 and -1e307: their squares, then their sum, overflowed
        ("simulate", '{"cost_a": 1e-300, "cost_b": 1e300}', 0),
        ("simulate", '{"cost_a": 1e-300, "cost_b": 1e306}', 0),
        # a value scale of 2e-309, below 2**-1024, must not be scaled up
        ("simulate", '{"cost_a": 1e-310, "cost_b": 1e-310}', 0),
        # a discount on the edge between horizons 3 and 4: the minimal horizon
        # was 3, and estimate_value refused it as too short
        ("simulate", '{"gamma": 0.011809453889593476}', 0),
        # gamma * h'(e*) underflows to 0 in the lifetime cost K, which is +inf
        ("design-backlash", '{"gamma": 5e-324}', 1),
        # |h'(0)| * damage overflows, and so would welfare's marginal column
        *((command, '{"damage": 1e308}', 2) for command in SUBCOMMANDS),
    ])
    def test_a_config_at_the_cost_ceiling_writes_only_finite_cells(self, tmp_path, capsys,
                                                                   command, text, expected):
        code, cells, err = self.run_warning_free(tmp_path, capsys, command, text)
        assert code == expected, err
        assert not {cell.lstrip("+-").lower() for cell in cells} & {"inf", "nan"}, cells
        if expected == 2:
            assert err.startswith("config error: damage (1e+308) must keep ")
        elif expected == 1:
            assert "K=inf" in err

    @pytest.mark.parametrize("command", ["welfare", "impossibility"])
    def test_a_damage_just_inside_the_rule_writes_only_finite_cells(self, tmp_path, capsys,
                                                                  command):
        # (0.9 * 1.99e307 + 0.6) / 0.1 = 1.79e308: the discounted loss column still fits
        code, cells, err = self.run_warning_free(tmp_path, capsys, command, '{"damage": 1.99e307}')
        assert code == 0, err
        assert not {cell.lstrip("+-").lower() for cell in cells} & {"inf", "nan"}, cells

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("text", [
        '{"seed": 0, "start_state": 0, "horizon": 0}',
        '{"state_count": 2, "drift": 1, "audit_prob": 0}',
        '{"h_max": 1, "gamma": 0, "damage": 0}',
        '{"start_state": 0.35, "seed": 1e15}',
    ])
    def test_an_accepted_edge_config_exits_zero_one_or_two(self, tmp_path, capsys, command,
                                                           text):
        code, err = self.run_text(tmp_path, capsys, command, text)
        assert code in (0, 1, 2), err


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

    @pytest.mark.parametrize("gamma", [0.9999999, 0.9999999999999999])
    def test_a_simulate_beyond_the_episode_step_cap_exits_two(self, tmp_path, gamma):
        # minimal horizons of 2.9e8 and 4.5e17 steps: without the cap the run
        # would not end, and the timeout turns that into a failure
        cfg = write_json(tmp_path / "c.json", {"gamma": gamma})
        code = "import sys; from regmdp.cli import run; sys.exit(run(sys.argv[1:]))"
        done = run_in_child("-c", code, "simulate", "--config", cfg)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("input error: n_episodes (100000) * horizon (")
        assert f"at gamma {gamma!r} is " in done.stderr

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
