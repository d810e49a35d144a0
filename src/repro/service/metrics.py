"""The ``metrics`` observer: streaming JSONL counters for live runs.

A :class:`MetricsSink` emits one JSON object per observation window —
alive nodes, distinct edge count, cumulative and per-window churn
volume, optional expansion-probe minima and wall-clock per window — plus
one line per flood result and a final summary line.  Tail the file while
a multi-hour run is in flight:

    tail -f metrics.jsonl | python -m json.tool --json-lines

:func:`prometheus_text` renders any flat metrics mapping in the
Prometheus text exposition format, so a scrape endpoint only needs to
serve ``prometheus_text(sink.gauges())``.

Checkpoint-safe: the emitted lines are part of the observer's state, so
a restored run rewrites the file prefix it already emitted exactly once
and continues appending — the sink's output is byte-identical (modulo
wall-clock fields; disable them with ``wallclock=False`` for strict
byte-level comparisons) to an uninterrupted run's.
"""

from __future__ import annotations

import json
import time
from numbers import Number
from pathlib import Path
from typing import IO, Any, Mapping

from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.core.csr import CSRView
from repro.errors import ConfigurationError
from repro.flooding.result import FloodingResult
from repro.models.base import RoundReport
from repro.scenario.observers import Observer, register_observer


@register_observer
class MetricsSink(Observer):
    """Streams per-window counters as JSONL.

    Args:
        path: optional JSONL file to stream into (each line flushed).
            Must be unique per session: ``bind`` truncates the file to
            re-emit recorded lines exactly once (the checkpoint-restore
            contract), so two sessions sharing one path clobber each
            other.  Sweeps should derive it per replication (e.g. from
            the seed), the way checkpoint files get per-session tags.
        every: window cadence in rounds.
        probe: also run an expansion probe per window and report its
            minimum ratio (uses the window's shared analysis view).
        probe_sets: random sets per expansion probe.
        probe_seed: probe RNG seed (independent of the driver's stream).
        wallclock: include per-window wall-clock milliseconds; disable
            for byte-identical output across runs.
    """

    name = "metrics"
    needs_view = False  # instance-overridden when probe=True

    def __init__(
        self,
        path: str | None = None,
        every: int = 1,
        probe: bool = False,
        probe_sets: int = 16,
        probe_seed: int = 0,
        wallclock: bool = True,
    ) -> None:
        if int(every) < 1:
            raise ConfigurationError("metrics sink needs every >= 1")
        super().__init__(every=every)
        self.path = None if path is None else str(path)
        self.probe = bool(probe)
        self.probe_sets = int(probe_sets)
        self.probe_seed = int(probe_seed)
        self.wallclock = bool(wallclock)
        if self.probe:
            self.needs_view = True
        self.lines: list[dict] = []
        self.total_births = 0
        self.total_deaths = 0
        self.flood_count = 0
        self._fh: IO[str] | None = None
        self._last_wall: float | None = None
        self._pending: dict | None = None

    # ------------------------------------------------------------------
    # session hooks
    # ------------------------------------------------------------------

    def bind(self, simulation: Any) -> None:
        super().bind(simulation)
        # Restored sinks already applied probe=True to needs_view via
        # load_state_dict; re-derive it so the session shares a view.
        if self.probe:
            self.needs_view = True
        if self.path is not None:
            # Truncating keeps restored output exactly-once; it also means
            # the path must be unique per session (see the class docstring).
            self._fh = Path(self.path).open("w", encoding="utf-8")
            for record in self.lines:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        self._last_wall = time.perf_counter() if self.wallclock else None

    def on_round(self, report: RoundReport) -> None:
        network = self.simulation.network
        births = len(report.births)
        deaths = len(report.deaths)
        self.total_births += births
        self.total_deaths += deaths
        record: dict[str, Any] = {
            "event": "window",
            "t": network.now,
            "rounds": self.simulation.rounds_completed,
            "alive": network.num_alive(),
            "edges": network.state.num_edges(),
            "births": births,
            "deaths": deaths,
            "total_births": self.total_births,
            "total_deaths": self.total_deaths,
        }
        if self.wallclock:
            now = time.perf_counter()
            if self._last_wall is not None:
                record["wall_ms"] = round((now - self._last_wall) * 1e3, 3)
            self._last_wall = now
        if self.probe:
            # Completed by on_view (the session delivers the shared view
            # right after on_round within the same window).
            self._pending = record
        else:
            self._emit(record)

    def on_view(self, report: RoundReport | None, view: CSRView) -> None:
        del report
        if self._pending is None:
            return  # the final-state view; the summary line covers it
        record = self._pending
        self._pending = None
        if view.n >= 2:
            probe = adversarial_expansion_upper_bound(
                view,
                seed=self.probe_seed,
                num_random_sets=self.probe_sets,
                greedy_restarts=2,
            )
            record["probe_min_ratio"] = probe.min_ratio
            record["probe_witness_size"] = probe.witness_size
        self._emit(record)

    def on_flood(self, result: FloodingResult) -> None:
        self.flood_count += 1
        self._emit(
            {
                "event": "flood",
                "completed": result.completed,
                "completion_round": result.completion_round,
                "final_informed": result.final_informed,
                "final_network_size": result.final_network_size,
                "max_informed": result.max_informed,
            }
        )

    def on_finish(self) -> None:
        network = self.simulation.network
        self._emit(
            {
                "event": "summary",
                "t": network.now,
                "rounds": self.simulation.rounds_completed,
                "alive": network.num_alive(),
                "edges": network.state.num_edges(),
                "total_births": self.total_births,
                "total_deaths": self.total_deaths,
                "floods": self.flood_count,
            }
        )

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def _emit(self, record: dict) -> None:
        self.lines.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def gauges(self) -> dict[str, float]:
        """Current values as a flat mapping for :func:`prometheus_text`."""
        latest = next(
            (
                record
                for record in reversed(self.lines)
                if record["event"] in ("window", "summary")
            ),
            None,
        )
        gauges: dict[str, float] = {
            "total_births": self.total_births,
            "total_deaths": self.total_deaths,
            "floods": self.flood_count,
        }
        if latest is not None:
            for key in ("t", "rounds", "alive", "edges", "probe_min_ratio"):
                if key in latest:
                    gauges[key] = latest[key]
        return gauges

    def result(self) -> dict[str, Any]:
        windows = sum(1 for r in self.lines if r["event"] == "window")
        return {
            "lines": len(self.lines),
            "windows": windows,
            "floods": self.flood_count,
            "total_births": self.total_births,
            "total_deaths": self.total_deaths,
            "path": self.path,
            "last": self.lines[-1] if self.lines else None,
        }


def prometheus_text(
    metrics: Mapping[str, Any], prefix: str = "repro"
) -> str:
    """Render *metrics* in the Prometheus text exposition format.

    Non-numeric values are skipped; keys are emitted sorted, each as an
    untyped-label gauge: ``# TYPE <prefix>_<key> gauge`` then the sample.
    """
    lines: list[str] = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, bool) or not isinstance(value, Number):
            continue
        try:
            rendered = float(value)  # Number includes e.g. complex
        except (TypeError, ValueError):
            continue
        name = f"{prefix}_{key}"
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {rendered:g}")
    return "\n".join(lines) + ("\n" if lines else "")
