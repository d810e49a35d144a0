"""Tests for trace-driven churn: repro.churn.trace, the ``trace`` churn
model, and the ``record_trace`` observer.

The headline contract: a trace recorded from *any* scenario replays
through ``churn="trace"`` with an identical population trajectory —
the same alive set at every instant from the recorder's attach point on
— composable with every edge policy.
"""

from __future__ import annotations

import json

import pytest

from repro.churn.trace import ChurnTrace, TraceEvent
from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, Simulation, build_network
from repro.service import TraceRecorder


def _join(t, node_id):
    return {"t": float(t), "op": "join", "id": node_id}


def _leave(t, node_id):
    return {"t": float(t), "op": "leave", "id": node_id}


class TestChurnTrace:
    def test_round_trip_through_jsonl(self, tmp_path):
        trace = ChurnTrace.from_dicts(
            [_join(0, 0), _join(0.5, 1), _leave(2, 0), _join(2, 2)]
        )
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        # One JSON object per line, loadable line by line.
        lines = path.read_text().strip().split("\n")
        assert [json.loads(line) for line in lines] == trace.to_dicts()
        assert ChurnTrace.load(path) == trace

    def test_iteration_yields_events(self):
        trace = ChurnTrace.from_dicts([_join(0, 7)])
        assert list(trace) == [TraceEvent(time=0.0, op="join", node_id=7)]
        assert len(trace) == 1
        assert trace.max_id == 7
        assert trace.end_time == 0.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError, match="op"):
            ChurnTrace.from_dicts([{"t": 0.0, "op": "jump", "id": 1}])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="key"):
            ChurnTrace.from_dicts([{"t": 0.0, "op": "join", "id": 1, "x": 2}])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ConfigurationError, match="goes backwards"):
            ChurnTrace.from_dicts([_join(3, 0), _join(2, 1)])

    def test_double_join_rejected(self):
        with pytest.raises(ConfigurationError, match="already present"):
            ChurnTrace.from_dicts([_join(0, 0), _join(1, 0)])

    def test_leave_without_join_rejected(self):
        with pytest.raises(ConfigurationError, match="leaves while absent"):
            ChurnTrace.from_dicts([_leave(0, 5)])


class TestTraceChurnModel:
    def test_registry_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            ScenarioSpec(churn="trace", n=10, d=2, churn_params={})
        with pytest.raises(ConfigurationError, match="exactly one"):
            ScenarioSpec(
                churn="trace",
                n=10,
                d=2,
                churn_params={"path": "x.jsonl", "events": []},
            )

    def test_inline_events_validated_at_spec_time(self):
        with pytest.raises(ConfigurationError, match="leaves while absent"):
            ScenarioSpec(
                churn="trace", n=10, d=2, churn_params={"events": [_leave(0, 1)]}
            )

    def test_replay_from_path(self, tmp_path, driver_backend):
        path = tmp_path / "trace.jsonl"
        ChurnTrace.from_dicts([_join(t, t) for t in range(8)]).save(path)
        spec = ScenarioSpec(
            churn="trace",
            policy="regen",
            n=8,
            d=2,
            horizon=8,
            churn_params={"path": str(path)},
            seed=0,
        )
        sim = Simulation(spec).run()
        assert sim.network.num_alive() == 8
        assert sim.network.exhausted

    def test_replay_population_trajectory(self, driver_backend):
        events = [_join(t, t) for t in range(6)] + [
            _leave(6, 0),
            _leave(7, 3),
            _join(7, 10),
        ]
        spec = ScenarioSpec(
            churn="trace",
            policy="regen",
            n=6,
            d=2,
            horizon=8,
            churn_params={"events": events},
            seed=1,
        )
        sim = Simulation(spec, observers=["size"])
        sizes = []
        for _ in range(8):
            sim.network.advance_round()
            sizes.append(sim.network.num_alive())
        # Round k covers (k-1, k]; the t=0 join is applied in round 1
        # together with the t=1 join, hence the leading 2.
        assert sizes == [2, 3, 4, 5, 6, 5, 5, 5]
        assert sorted(sim.network.state.alive_ids()) == [1, 2, 4, 5, 10]

    def test_ids_beyond_trace_do_not_collide(self, driver_backend):
        # Policies may allocate nodes after the trace's ids; the floor
        # guarantees fresh ids never collide with replayed ones.
        events = [_join(0, 100)]
        spec = ScenarioSpec(
            churn="trace",
            policy="regen",
            n=2,
            d=1,
            horizon=1,
            churn_params={"events": events},
        )
        network = build_network(spec, seed=0)
        assert network.state.allocate_id() > 100


class TestRecordReplay:
    @pytest.mark.parametrize(
        "churn,params",
        [
            ("streaming", {}),
            ("general", {"lifetime": "pareto"}),
            ("poisson", {}),
        ],
    )
    def test_recorded_trace_replays_population_exactly(
        self, driver_backend, churn, params
    ):
        spec = ScenarioSpec(
            churn=churn,
            policy="regen",
            n=30,
            d=3,
            horizon=12,
            churn_params=params,
            seed=21,
        )
        recorder = TraceRecorder()
        original = Simulation(spec, observers=[recorder, "size"]).run()
        trace = recorder.trace()
        observed = original.results()["size"]
        # The recorded population trajectory, keyed by round boundary.
        expected = dict(zip(observed["times"], observed["sizes"]))

        replay_spec = ScenarioSpec(
            churn="trace",
            policy="regen",
            n=30,
            d=3,
            horizon=original.network.now,
            churn_params={"events": trace.to_dicts()},
            seed=99,  # different seed: wiring differs, population must not
        )
        replay = Simulation(replay_spec)
        replayed = {}
        for _ in range(int(original.network.now)):
            replay.network.advance_round()
            replayed[replay.network.now] = replay.network.num_alive()
        # The alive count matches at every observed round boundary, and
        # the final alive sets are identical node for node.
        for t, size in expected.items():
            assert replayed[t] == size
        assert sorted(replay.network.state.alive_ids()) == sorted(
            original.network.state.alive_ids()
        )

    def test_recorder_streams_jsonl(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        spec = ScenarioSpec(
            churn="streaming", policy="regen", n=10, d=2, horizon=5, seed=0
        )
        Simulation(spec, observers=[TraceRecorder(path=str(path))]).run()
        records = [
            json.loads(line) for line in path.read_text().strip().split("\n")
        ]
        # 10 initial joins + 5 rounds of one replacement (join + leave).
        assert len(records) == 10 + 10
        ChurnTrace.from_dicts(records)  # validates as a replayable trace

    def test_recorder_rejects_every_zero(self):
        with pytest.raises(ConfigurationError, match="every >= 1"):
            TraceRecorder(every=0)
