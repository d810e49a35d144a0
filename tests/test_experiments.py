"""Tests for the experiment harness (registry, CLI, quick runs)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import all_experiments, get_experiment, run_experiment
from repro.experiments.__main__ import main as cli_main
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.util.rng import derive_seeds


class TestRegistry:
    def test_all_seventeen_registered(self):
        ids = [e.experiment_id for e in all_experiments()]
        assert ids == [f"EXP-{i:02d}" for i in range(1, 18)]

    def test_get_known(self):
        exp = get_experiment("EXP-01")
        assert "Isolated" in exp.title

    def test_get_unknown(self):
        with pytest.raises(ExperimentError):
            get_experiment("EXP-99")

    def test_paper_references_present(self):
        for exp in all_experiments():
            assert exp.paper_reference


class TestCommon:
    def test_named_streams_are_the_replacement(self):
        seeds = derive_seeds(0, "trials", 4)
        assert len(seeds) == 4
        states = [s.generate_state(1)[0] for s in seeds]
        assert len(set(states)) == 4

    def test_stopwatch(self):
        with Stopwatch() as watch:
            sum(range(1000))
        assert watch.elapsed >= 0.0

    def test_result_rendering(self):
        result = ExperimentResult(
            experiment_id="EXP-00",
            title="demo",
            paper_reference="none",
            columns=["a"],
            rows=[{"a": 1}],
            verdict={"ok": True, "value": 3.2},
            notes="a note",
        )
        text = result.to_text()
        assert "EXP-00" in text
        assert "a note" in text
        assert "verdict" in text

    def test_passed_checks_bools_only(self):
        good = ExperimentResult("E", "t", "p", [], verdict={"ok": True, "x": 0.5})
        bad = ExperimentResult("E", "t", "p", [], verdict={"ok": False, "x": 0.5})
        assert good.passed()
        assert not bad.passed()


class TestQuickRuns:
    """Each experiment runs green in quick mode (the full reproduction
    statement lives in EXPERIMENTS.md; these guard against regressions)."""

    @pytest.mark.parametrize(
        "experiment_id",
        [f"EXP-{i:02d}" for i in range(1, 18) if i != 12],
    )
    def test_quick_run_passes(self, experiment_id):
        result = run_experiment(experiment_id, quick=True, seed=0)
        assert result.rows, f"{experiment_id} produced no rows"
        assert result.passed(), (
            f"{experiment_id} failing verdict: {result.verdict}"
        )

    @pytest.mark.slow
    def test_table1_quick_run_passes(self):
        result = run_experiment("EXP-12", quick=True, seed=0)
        assert result.passed()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-01" in out and "EXP-14" in out

    def test_default_is_list(self, capsys):
        assert cli_main([]) == 0
        assert "EXP-01" in capsys.readouterr().out

    def test_run_single(self, capsys):
        assert cli_main(["EXP-01", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out


class TestSweepCli:
    def _spec(self):
        from repro.scenario import ScenarioSpec
        from repro.sweep import SweepSpec

        return SweepSpec(
            base=ScenarioSpec(
                churn="streaming", policy="regen", n=30, d=3, horizon=10
            ),
            axes=[("d", [2, 3])],
            replicas=2,
            seed=7,
        )

    def test_sweep_round_trip(self, tmp_path, capsys):
        """A SweepSpec serialized with to_json runs through --sweep and
        prints exactly the values run_sweep computes for that spec."""
        import json

        from repro.sweep import SweepSpec, run_sweep

        sweep = self._spec()
        path = tmp_path / "sweep.json"
        path.write_text(sweep.to_json(), encoding="utf-8")
        assert SweepSpec.from_json(path.read_text(encoding="utf-8")) == sweep

        assert cli_main(["--sweep", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == run_sweep(sweep).values()

    def test_sweep_conflicts_with_experiment_ids(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(self._spec().to_json(), encoding="utf-8")
        with pytest.raises(SystemExit):
            cli_main(["EXP-01", "--sweep", str(path)])
        with pytest.raises(SystemExit):
            cli_main(["--sweep", str(path), "--scenario", str(path)])

    def test_sweep_honors_store_and_resume(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(self._spec().to_json(), encoding="utf-8")
        store = tmp_path / "store"
        assert cli_main(["--sweep", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert cli_main(["--sweep", str(path), "--store", str(store)]) == 0
        assert "executed 0," in capsys.readouterr().err
