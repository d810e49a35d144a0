"""Tests for the streaming metrics sink (repro.service.metrics)."""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.errors import ConfigurationError
from repro.scenario import ScenarioSpec, Simulation, make_observer
from repro.service import MetricsSink, prometheus_text


def _spec(**overrides):
    defaults = dict(
        churn="streaming", policy="regen", n=30, d=3, horizon=10, seed=5
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestMetricsSink:
    def test_jsonl_parses_line_by_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        sim = Simulation(
            _spec(protocol="discrete"),
            observers=[MetricsSink(path=str(path), every=2)],
        ).run()
        sim.flood()
        records = [
            json.loads(line) for line in path.read_text().strip().split("\n")
        ]
        events = [record["event"] for record in records]
        # 5 windows (every=2 over horizon 10); the last window lands on
        # the horizon so there is no separate summary line; then a flood.
        assert events == ["window"] * 5 + ["flood"]
        for record in records[:5]:
            assert record["alive"] == 30
            assert record["births"] == 2 and record["deaths"] == 2
            assert "wall_ms" in record or record is records[0]
        assert records[-1]["completed"] in (True, False)

    def test_counters_match_size_observer(self):
        sim = Simulation(
            _spec(), observers=[MetricsSink(every=1), "size"]
        ).run()
        results = sim.results()
        assert (
            results["metrics"]["total_births"]
            == results["size"]["total_births"]
        )
        assert (
            results["metrics"]["total_deaths"]
            == results["size"]["total_deaths"]
        )
        windows = [
            r for r in sim.observers[0].lines if r["event"] == "window"
        ]
        assert [w["alive"] for w in windows] == results["size"]["sizes"]

    def test_summary_emitted_when_cadence_misses_horizon(self):
        sink = MetricsSink(every=4, wallclock=False)
        Simulation(_spec(horizon=10), observers=[sink]).run()
        events = [record["event"] for record in sink.lines]
        # Windows at rounds 4 and 8; the horizon (10) is not on the
        # cadence, so the finish notification emits the summary line.
        assert events == ["window", "window", "summary"]
        assert sink.lines[-1]["rounds"] == 10

    def test_probe_uses_shared_view(self):
        sink = MetricsSink(every=5, probe=True, probe_sets=8, wallclock=False)
        Simulation(_spec(), observers=[sink]).run()
        windows = [r for r in sink.lines if r["event"] == "window"]
        assert len(windows) == 2
        for window in windows:
            assert 0.0 < window["probe_min_ratio"] <= 3.0
            assert window["probe_witness_size"] >= 1

    def test_restore_rewrites_stream_exactly_once(self, tmp_path):
        path_full = tmp_path / "full.jsonl"
        path_cut = tmp_path / "cut.jsonl"
        spec = _spec()
        Simulation(
            spec, observers=[MetricsSink(path=str(path_full), wallclock=False)]
        ).run()
        partial = Simulation(
            spec, observers=[MetricsSink(path=str(path_cut), wallclock=False)]
        )
        partial._run_windows(6)
        checkpoint = partial.save_checkpoint(tmp_path / "ck.json")
        # Simulate the kill: blow away the interrupted stream entirely.
        os.remove(path_cut)
        restored = Simulation.restore(checkpoint)
        restored.run()
        # The restored sink rewrote the pre-checkpoint prefix and kept
        # appending: byte-identical output with wallclock disabled.
        assert path_cut.read_bytes() == path_full.read_bytes()

    def test_registry_name(self):
        sink = make_observer("metrics", every=3, wallclock=False)
        assert isinstance(sink, MetricsSink)
        assert sink.every == 3

    def test_rejects_every_zero(self):
        with pytest.raises(ConfigurationError, match="every >= 1"):
            MetricsSink(every=0)

    def test_gauges_reflect_latest_window(self):
        sink = MetricsSink(every=2, wallclock=False)
        Simulation(_spec(), observers=[sink]).run()
        gauges = sink.gauges()
        assert gauges["alive"] == 30
        assert gauges["rounds"] == 10
        assert gauges["total_births"] == 10


class TestPrometheusText:
    def test_renders_sorted_gauges(self):
        text = prometheus_text({"b": 2, "a": 1.5})
        assert text == (
            "# TYPE repro_a gauge\nrepro_a 1.5\n"
            "# TYPE repro_b gauge\nrepro_b 2\n"
        )

    def test_skips_non_numeric_and_bool(self):
        text = prometheus_text({"path": "x.jsonl", "flag": True, "n": 3})
        assert "path" not in text and "flag" not in text
        assert "repro_n 3" in text

    def test_skips_unconvertible_numbers(self):
        # complex is a numbers.Number but float() raises on it; such
        # values are skipped, per the "non-numeric values are skipped"
        # contract, rather than blowing up the exposition.
        text = prometheus_text({"z": 1 + 2j, "n": 3})
        assert "repro_z" not in text
        assert "repro_n 3" in text

    def test_custom_prefix_and_empty(self):
        assert prometheus_text({}) == ""
        assert prometheus_text({"x": 1}, prefix="svc").startswith("# TYPE svc_x")

    def test_round_trips_sink_gauges(self):
        sink = MetricsSink(every=5, wallclock=False)
        Simulation(_spec(), observers=[sink]).run()
        text = prometheus_text(sink.gauges())
        assert "repro_alive 30" in text
        assert "repro_total_births 10" in text
