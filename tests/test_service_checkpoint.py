"""Tests for the service plane's checkpoint/restore (repro.service.checkpoint).

The headline property, enforced as a hypothesis property over random
checkpoint rounds: a run checkpointed at round
k and restored is **bit-identical** — events, observer reports, final
topology, final RNG state, flood results — to the same seeded run left
uninterrupted.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ConfigurationError
from repro.scenario import ScenarioSpec, Simulation
from repro.scenario.observers import Observer, register_observer
from repro.service import checkpoint as checkpoint_io
from repro.service import use_service_options
from tests.oracles.dict_backend import build_drivers_on_oracle
from tests.test_exact_windows import records

HORIZON = 16

DRIVER_PARAMS = [
    ("streaming", {}),
    ("threshold", {}),
    ("adversarial", {"strategy": "max_degree"}),
    ("poisson", {}),
    ("general", {"lifetime": "pareto"}),
]


def _spec(churn, params, **overrides):
    defaults = dict(
        churn=churn,
        policy="regen",
        n=40,
        d=3,
        horizon=HORIZON,
        churn_params=dict(params),
        seed=13,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


OBSERVERS = ("size", {"name": "degrees", "params": {"every": 4}})


def _run_uninterrupted(spec):
    return Simulation(spec, observers=OBSERVERS).run()


def _run_interrupted(spec, checkpoint_round):
    """Advance to checkpoint_round, dump, restore, finish the horizon."""
    partial = Simulation(spec, observers=OBSERVERS)
    partial._run_windows(checkpoint_round)
    with tempfile.TemporaryDirectory() as scratch:
        path = partial.save_checkpoint(os.path.join(scratch, "ck.json"))
        return Simulation.restore(path).run()


def _assert_sessions_identical(restored, baseline):
    assert restored.rounds_completed == baseline.rounds_completed
    assert restored.network.now == baseline.network.now
    assert restored.results() == baseline.results()
    assert restored.snapshot() == baseline.snapshot()
    assert (
        restored.network.rng.bit_generator.state
        == baseline.network.rng.bit_generator.state
    )


class TestRestoreParityProperty:
    """The hypothesis property: restore parity at any checkpoint round."""

    @settings(max_examples=12, deadline=None)
    @given(
        checkpoint_round=st.integers(min_value=1, max_value=HORIZON - 1),
        driver=st.sampled_from(DRIVER_PARAMS),
    )
    def test_restored_run_is_bit_identical(self, checkpoint_round, driver):
        churn, params = driver
        spec = _spec(churn, params)
        baseline = _run_uninterrupted(spec)
        restored = _run_interrupted(spec, checkpoint_round)
        _assert_sessions_identical(restored, baseline)


class TestRestoreParityDeterministic:
    """Pinned (non-hypothesis) parity cases CI can bisect on."""

    @pytest.mark.parametrize("churn,params", DRIVER_PARAMS)
    def test_mid_run_restore(self, churn, params):
        spec = _spec(churn, params)
        baseline = _run_uninterrupted(spec)
        restored = _run_interrupted(spec, HORIZON // 2)
        _assert_sessions_identical(restored, baseline)

    def test_trace_driver_restores(self):
        events = [{"t": float(t), "op": "join", "id": t} for t in range(12)]
        events += [
            {"t": 12.0 + t, "op": "leave", "id": t} for t in range(4)
        ]
        spec = ScenarioSpec(
            churn="trace",
            policy="regen",
            n=12,
            d=2,
            horizon=HORIZON,
            churn_params={"events": events},
            seed=4,
        )
        baseline = _run_uninterrupted(spec)
        restored = _run_interrupted(spec, 7)
        _assert_sessions_identical(restored, baseline)

    def test_batched_restore_parity(self):
        spec = _spec("poisson", {}, n=60, horizon=20, fast_rounds=True)
        baseline = _run_uninterrupted(spec)
        with tempfile.TemporaryDirectory() as scratch:
            cadenced = Simulation(
                spec,
                observers=OBSERVERS,
                checkpoint_every=8,
                checkpoint_dir=scratch,
            ).run()
            # Cadence checkpointing must not perturb the run itself.
            assert cadenced.results() == baseline.results()
            assert cadenced.snapshot() == baseline.snapshot()
            files = sorted(
                f for f in os.listdir(scratch) if f.startswith("ckpt-")
            )
            assert [checkpoint_io._rounds_in_name(f) for f in files] == [8, 16]
            restored = Simulation.restore(
                os.path.join(scratch, files[0])
            ).run()
        _assert_sessions_identical(restored, baseline)

    def test_mixed_cadence_observer_restore(self, tmp_path):
        # Regression: feeds exist only for every>0 observers, so the
        # checkpoint must record observer-list indices, not feed-list
        # positions.  With a cadence-0 observer *ahead* of a cadenced one
        # the buggy encoding re-attached the feed to the wrong observer
        # and the cadenced observer lost every post-restore window.
        spec = _spec("streaming", {})
        mixed = ("coverage", {"name": "size", "params": {"every": 1}})
        baseline = Simulation(spec, observers=mixed).run()
        partial = Simulation(spec, observers=mixed)
        partial._run_windows(6)
        path = partial.save_checkpoint(tmp_path / "ck.json")
        restored = Simulation.restore(path)
        assert [f.observer.name for f in restored._feeds] == ["size"]
        restored.run()
        assert restored.results() == baseline.results()
        assert restored.snapshot() == baseline.snapshot()
        assert len(restored.results()["size"]["sizes"]) == HORIZON

    @pytest.mark.parametrize("via", ["state", "simulation"])
    def test_records_after_restore_match(self, via, tmp_path):
        """The 300 per-event rounds after a restore record what the
        uninterrupted run records, ``edges_destroyed`` order included:
        the restored reverse index is a fresh snapshot of the slots, and
        no record depends on its sets' iteration order."""
        spec = _spec("streaming", {}, n=200, d=4, horizon=500, seed=5)
        baseline, resumed = (
            Simulation(spec, observers=OBSERVERS).run() for _ in range(2)
        )
        if via == "state":
            state = resumed.network.state
            state.restore_state(state.dump_state())
        else:
            resumed = Simulation.restore(resumed.save_checkpoint(tmp_path / "ck"))
        assert records(resumed.network.run_rounds(300)) == records(
            baseline.network.run_rounds(300)
        )

    def test_flood_after_restore_matches(self):
        spec = _spec(
            "streaming",
            {},
            protocol="discrete",
            protocol_params={"max_rounds": 100},
        )
        baseline = _run_uninterrupted(spec)
        base_flood = baseline.flood()
        restored = _run_interrupted(spec, 5)
        restored_flood = restored.flood()
        assert restored_flood.informed_sizes == base_flood.informed_sizes
        assert restored_flood.completion_round == base_flood.completion_round


class TestCheckpointFiles:
    def test_directory_restore_picks_most_advanced(self, tmp_path):
        spec = _spec("streaming", {})
        sim = Simulation(
            spec,
            observers=OBSERVERS,
            checkpoint_every=4,
            checkpoint_dir=tmp_path,
        ).run()
        assert sim.rounds_completed == HORIZON
        latest = checkpoint_io.latest_checkpoint(tmp_path)
        assert checkpoint_io._rounds_in_name(latest.name) == HORIZON
        resumed = Simulation.restore(tmp_path)
        assert resumed.restored_from == latest
        assert resumed.rounds_completed == HORIZON
        # Nothing left to run: the session is already at its horizon.
        resumed.run()
        assert resumed.rounds_completed == HORIZON

    def test_directory_restore_falls_back_past_corrupt_latest(self, tmp_path):
        # A damaged most-advanced file must not make the directory
        # unrestorable: load_checkpoint warns and uses the next one.
        spec = _spec("streaming", {})
        Simulation(
            spec,
            observers=OBSERVERS,
            checkpoint_every=4,
            checkpoint_dir=tmp_path,
        ).run()
        ranked = checkpoint_io.ranked_checkpoints(tmp_path)
        assert len(ranked) == 4
        ranked[-1].write_text(ranked[-1].read_text()[:80])
        with pytest.warns(RuntimeWarning, match="skipping unusable"):
            checkpoint = checkpoint_io.load_checkpoint(tmp_path)
        assert checkpoint.path == ranked[-2]
        assert checkpoint.rounds_completed == 12
        # Every file damaged -> a CheckpointError naming the failures.
        for path in ranked:
            path.write_text("not json")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(CheckpointError, match="no loadable"):
                checkpoint_io.load_checkpoint(tmp_path)

    def test_checkpoint_envelope_shape(self, tmp_path):
        sim = Simulation(_spec("streaming", {}), observers=OBSERVERS)
        sim._run_windows(3)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        envelope = json.loads(path.read_text())
        assert envelope["format"] == checkpoint_io.FORMAT
        assert envelope["version"] == checkpoint_io.VERSION
        assert set(envelope["payload"]) == {
            "spec",
            "time",
            "rounds_completed",
            "backend",
            "driver",
            "rng",
            "observers",
            "feeds",
        }

    def test_corrupted_payload_rejected(self, tmp_path):
        sim = Simulation(_spec("streaming", {}))
        sim._run_windows(2)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        envelope = json.loads(path.read_text())
        envelope["payload"]["rounds_completed"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="content-hash"):
            checkpoint_io.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        sim = Simulation(_spec("streaming", {}))
        sim._run_windows(2)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        path.write_text(path.read_text()[: 100])
        with pytest.raises(CheckpointError, match="not valid JSON"):
            checkpoint_io.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        sim = Simulation(_spec("streaming", {}))
        sim._run_windows(2)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        envelope = json.loads(path.read_text())
        envelope["version"] = 999
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_io.load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CheckpointError, match="not a repro-checkpoint"):
            checkpoint_io.load_checkpoint(path)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no ckpt-"):
            checkpoint_io.load_checkpoint(tmp_path)

    def test_backend_pinned_to_recorded_kind(self, tmp_path):
        # A checkpoint whose spec names the array backend restores as one.
        spec = _spec("streaming", {}, backend="array")
        sim = Simulation(spec, observers=OBSERVERS)
        sim._run_windows(4)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        restored = Simulation.restore(path)
        assert type(restored.state).__name__ == "ArraySlotBackend"

    def test_dict_checkpoint_rejected(self, tmp_path, monkeypatch):
        # A checkpoint of the removed dict backend (here: the oracle's
        # dump_state, recorded kind "dict") fails loudly on restore.
        build_drivers_on_oracle(monkeypatch)
        sim = Simulation(_spec("streaming", {}), observers=OBSERVERS)
        sim._run_windows(4)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        monkeypatch.undo()
        assert checkpoint_io.load_checkpoint(path).payload["backend"][
            "kind"
        ] == "dict"
        with pytest.raises(ConfigurationError, match="tests/oracles/"):
            Simulation.restore(path)


class TestObserverRestore:
    def test_custom_observer_needs_declaration(self, tmp_path):
        class Custom(Observer):
            name = "custom_probe_for_restore"

            def __init__(self):
                super().__init__(every=2)
                self.ticks = 0

            def on_round(self, report):
                self.ticks += 1

        sim = Simulation(
            _spec("streaming", {}), observers=[Custom()]
        )
        sim._run_windows(6)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        with pytest.raises(CheckpointError, match="cannot rebuild observer"):
            Simulation.restore(path)
        restored = Simulation.restore(path, observers=[Custom()])
        assert restored.observers[0].ticks == 3

    def test_declaration_name_mismatch_rejected(self, tmp_path):
        sim = Simulation(_spec("streaming", {}), observers=["size"])
        sim._run_windows(2)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        with pytest.raises(CheckpointError, match="do not match"):
            Simulation.restore(path, observers=["degrees"])


class TestCli:
    """Kill-and-resume through the CLI: checkpoint a JSON scenario run,
    restore from the mid-run file, and get the identical final report."""

    def _scenario_file(self, tmp_path):
        spec = _spec("poisson", {}, backend="array", n=50, fast_rounds=True)
        document = {
            "scenario": spec.to_dict(),
            "observers": ["size"],
            "flood": False,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        return path

    def test_kill_and_resume_round_trip(self, tmp_path, capsys):
        from repro.cli.main import main as cli_main

        scenario = self._scenario_file(tmp_path)
        ckpt_dir = tmp_path / "ckpts"
        assert (
            cli_main(
                [
                    "--scenario",
                    str(scenario),
                    "--checkpoint-dir",
                    str(ckpt_dir),
                    "--checkpoint-every",
                    "4",
                ]
            )
            == 0
        )
        baseline = capsys.readouterr().out
        files = sorted(
            f for f in os.listdir(ckpt_dir) if f.startswith("ckpt-")
        )
        assert [checkpoint_io._rounds_in_name(f) for f in files] == [
            4, 8, 12, 16,
        ]
        # "Kill" after round 8: restore from that file and finish.
        assert (
            cli_main(["--restore", str(ckpt_dir / files[1])]) == 0
        )
        resumed = capsys.readouterr().out
        # Identical observer report and final network line.
        tail = baseline[baseline.index("observers:"):]
        assert resumed.endswith(tail)

    def test_restore_writes_cadence_checkpoints_next_to_its_source(
        self, tmp_path, monkeypatch, capsys
    ):
        """A spec with a cadence but no directory, run with
        ``--checkpoint-dir``: restoring one of its checkpoints without
        the flag writes the later ones next to the restored file."""
        from repro.cli.main import main as cli_main

        example = os.path.join(
            os.path.dirname(__file__), "..", "examples", "service_checkpoint.json"
        )
        with open(example) as handle:
            document = json.load(handle)
        del document["scenario"]["checkpoint_dir"]
        document["observers"] = ["size"]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["--scenario", str(scenario), "--checkpoint-dir", "ck2"]) == 0
        first = sorted(os.listdir(tmp_path / "ck2"))
        assert [checkpoint_io._rounds_in_name(f) for f in first] == [
            25, 50, 75, 100,
        ]
        capsys.readouterr()
        source = tmp_path / "ck2" / first[0]
        assert cli_main(["--restore", str(source)]) == 0
        resumed = sorted(set(os.listdir(tmp_path / "ck2")) - set(first))
        assert [checkpoint_io._rounds_in_name(f) for f in resumed] == [
            50, 75, 100,
        ]

    def test_restore_conflicts_with_scenario(self, tmp_path):
        from repro.cli.main import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["--restore", "x", "--scenario", "y"])

    def test_checkpoint_every_needs_dir(self):
        from repro.cli.main import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["EXP-01", "--checkpoint-every", "5"])


class TestConfiguration:
    def test_cadence_without_directory_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint directory"):
            Simulation(_spec("streaming", {}), checkpoint_every=4)

    def test_spec_carries_service_settings(self, tmp_path):
        spec = _spec(
            "streaming",
            {},
            checkpoint_every=8,
            checkpoint_dir=str(tmp_path),
        )
        sim = Simulation(spec).run()
        assert sim.rounds_completed == HORIZON
        files = [f for f in os.listdir(tmp_path) if f.startswith("ckpt-")]
        assert len(files) == 2  # rounds 8 and 16

    def test_ambient_service_options(self, tmp_path):
        with use_service_options(checkpoint_every=8, checkpoint_dir=tmp_path):
            sim = Simulation(_spec("streaming", {})).run()
        assert sim.checkpoint_every == 8
        files = [f for f in os.listdir(tmp_path) if f.startswith("ckpt-")]
        assert len(files) == 2

    def test_spec_and_restore_mutually_exclusive(self, tmp_path):
        sim = Simulation(_spec("streaming", {}))
        sim._run_windows(2)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        with pytest.raises(ConfigurationError, match="not both"):
            Simulation(_spec("streaming", {}), restore_from=path)

    def test_run_twice_is_idempotent_at_horizon(self):
        sim = Simulation(_spec("streaming", {}), observers=OBSERVERS)
        sim.run()
        results = sim.results()
        sim.run()  # nothing left to the horizon: a no-op for the feeds
        assert sim.rounds_completed == HORIZON
        assert sim.results()["size"]["sizes"] == results["size"]["sizes"]

    def test_unsupported_driver_rejected(self):
        class NotADriver:
            pass

        with pytest.raises(CheckpointError, match="does not support"):
            checkpoint_io._driver_codec(NotADriver())
