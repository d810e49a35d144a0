"""Interface-layer tests: the ``sweep`` subcommands and the
``repro.cli`` entry point."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import main as cli_main
from repro.scenario import ScenarioSpec
from repro.sweep import SweepSpec, measurement
from repro.util.rng import SeedLike, make_rng


@measurement("pytest-cli-echo")
def cli_echo(spec: ScenarioSpec, seed: SeedLike) -> dict:
    return {"draw": float(make_rng(seed).random()), "d": spec.d}


@pytest.fixture
def sweep_file(tmp_path):
    document = {
        "base": {
            "churn": "streaming",
            "policy": "none",
            "n": 40,
            "d": 2,
            "horizon": 10,
        },
        "axes": [{"field": "d", "values": [2, 3]}],
        "replicas": 2,
        "seed": 0,
        "stream": "pytest-cli",
        "measure": "pytest-cli-echo",
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document))
    return path


def _last_json(captured: str) -> dict:
    """The machine-readable payload: the trailing JSON object on stdout."""
    start = captured.index("{")
    return json.loads(captured[start:])


class TestShim:
    def test_legacy_helpers_still_importable(self):
        from repro.cli.main import (  # noqa: F401
            run_restore,
            run_scenario_file,
            run_sweep_file,
        )

    def test_list_still_works_through_both(self, capsys):
        assert cli_main(["--list"]) == 0
        assert "EXP-01" in capsys.readouterr().out

    def test_module_entry_point(self):
        # `python -m repro.cli` is the one command-line entry point; the
        # old `python -m repro.experiments` module is gone.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )

        def run(module: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", module, "--list"],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )

        current = run("repro.cli")
        assert current.returncode == 0, current.stderr
        assert "EXP-01" in current.stdout
        assert run("repro.experiments").returncode != 0


class TestSweepRun:
    def test_sequential_and_parallel_digests_match(
        self, tmp_path, sweep_file, capsys
    ):
        assert cli_main(
            ["sweep", "run", str(sweep_file), "--store", str(tmp_path / "s1")]
        ) == 0
        solo = _last_json(capsys.readouterr().out)
        assert cli_main(
            [
                "sweep", "run", str(sweep_file),
                "--store", str(tmp_path / "s2"), "--workers", "2",
            ]
        ) == 0
        duo = _last_json(capsys.readouterr().out)
        assert solo["digest"] == duo["digest"]
        assert solo["key"] == duo["key"]
        assert solo["cells"] == duo["cells"] == 4

    def test_values_flag_prints_canonical_values(
        self, tmp_path, sweep_file, capsys
    ):
        assert cli_main(
            [
                "sweep", "run", str(sweep_file),
                "--store", str(tmp_path), "--values",
            ]
        ) == 0
        out = capsys.readouterr().out
        values = json.loads(out[out.index("[") :])
        assert len(values) == 4
        assert [v["d"] for v in values] == [2, 2, 3, 3]


class TestWorkerReduceStatus:
    def test_two_terminal_flow(self, tmp_path, sweep_file, capsys):
        store = str(tmp_path / "shared")
        # Terminal 1: a worker drains the grid.
        assert cli_main(["sweep", "worker", str(sweep_file), "--store", store]) == 0
        capsys.readouterr()
        # Terminal 2: the reducer finds the grid complete and writes the
        # artifact; a second worker would have found only cached cells.
        assert cli_main(
            ["sweep", "reduce", str(sweep_file), "--store", store, "--timeout", "0"]
        ) == 0
        summary = _last_json(capsys.readouterr().out)
        assert summary["cells"] == 4

        # The bare key round-trips through status (submitted spec doc).
        assert cli_main(["sweep", "status", summary["key"], "--store", store]) == 0
        assert "4/4 done" in capsys.readouterr().out

    def test_status_incomplete_exits_nonzero(self, tmp_path, sweep_file, capsys):
        store = str(tmp_path / "empty")
        assert cli_main(
            ["sweep", "status", str(sweep_file), "--store", store, "--json"]
        ) == 1
        census = _last_json(capsys.readouterr().out)
        assert census["done"] == 0
        assert census["pending"] == 4
        assert not census["complete"]

    def test_reduce_timeout_fails_cleanly(self, tmp_path, sweep_file, capsys):
        assert cli_main(
            [
                "sweep", "reduce", str(sweep_file),
                "--store", str(tmp_path), "--timeout", "0",
            ]
        ) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_bad_spec_operand_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(
            ["sweep", "status", "no-such-file.json", "--store", str(tmp_path)]
        ) == 1
        assert "neither" in capsys.readouterr().err
