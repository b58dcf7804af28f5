"""Golden outputs: every subcommand on both demo configs, byte for byte.

Each run's exit code and the SHA-256 of its CSV must match
`golden_cli.json`. A change that moves a printed digit must update that file
and explain the change in CHANGES.md. To rewrite the file from the current
checkout, run `PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import hashlib
import json
import pathlib
import tempfile
import warnings

import pytest

from regmdp.cli import run

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
CONFIGS = ("canonical", "design_feasible")
COMMANDS = ("welfare", "solve", "design-backlash", "static", "impossibility", "simulate", "verify")
CASES = [f"{config}/{command}" for config in CONFIGS for command in COMMANDS]


def digest(case, workdir):
    """Exit code and CSV SHA-256 of one subcommand run on one demo config."""
    config, command = case.split("/")
    out = pathlib.Path(workdir) / f"{config}-{command}.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning is a defect, not noise
        code = run([command, "--config", str(ROOT / "demos" / f"{config}.json"), "--out", str(out)])
    return {"exit_code": code, "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest()}


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_the_golden_digest(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert digest(case, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        table = {case: digest(case, workdir) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
