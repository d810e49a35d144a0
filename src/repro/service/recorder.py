"""The ``record_trace`` observer: turn any run into a replayable trace.

Attach it to any scenario and it logs the population's churn as
``{"t", "op", "id"}`` records (the :mod:`repro.churn.trace` schema):
one ``join`` per node alive at attach time (at its original birth time,
so ages are preserved), then every subsequent birth and death at its
exact event time.  The resulting trace replays through
``churn="trace"`` with an *identical population trajectory* from the
attach point on — same alive set at every instant — while edge wiring
re-randomizes through whatever policy the replay composes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO

from repro.churn.trace import ChurnTrace
from repro.errors import ConfigurationError
from repro.models.base import RoundReport
from repro.scenario.observers import Observer, register_observer


@register_observer
class TraceRecorder(Observer):
    """Records the session's churn as a replayable JSONL trace.

    Args:
        path: optional JSONL file to stream events into (each line is
            flushed as written, so a killed run keeps its trace so far).
        every: window cadence; events carry their exact timestamps
            regardless, so the cadence only controls batching latency.
    """

    name = "record_trace"

    def __init__(self, path: str | None = None, every: int = 1) -> None:
        if int(every) < 1:
            raise ConfigurationError(
                "record_trace needs every >= 1 (it must see every window)"
            )
        super().__init__(every=every)
        self.path = None if path is None else str(path)
        self.lines: list[dict] = []
        self._fh: IO[str] | None = None

    def bind(self, simulation: Any) -> None:
        super().bind(simulation)
        # (Re)write the file from the recorded lines: after a checkpoint
        # restore this replays the pre-checkpoint prefix exactly once.
        if self.path is not None:
            self._fh = Path(self.path).open("w", encoding="utf-8")
            for record in self.lines:
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        if not self.lines:
            state = simulation.network.state
            alive = sorted(
                state.alive_ids(),
                key=lambda u: (state.birth_time(u), u),
            )
            for node_id in alive:
                self._emit(
                    {
                        "t": float(state.birth_time(node_id)),
                        "op": "join",
                        "id": int(node_id),
                    }
                )

    def on_round(self, report: RoundReport) -> None:
        for event in report.events:
            if event.is_birth:
                op = "join"
            elif event.is_death:
                op = "leave"
            else:  # pragma: no cover - drivers only emit births/deaths
                continue
            for node_id in event.node_ids:
                self._emit({"t": event.time, "op": op, "id": int(node_id)})

    def _emit(self, record: dict) -> None:
        self.lines.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def trace(self) -> ChurnTrace:
        """The recorded events as a validated :class:`ChurnTrace`."""
        return ChurnTrace.from_dicts(self.lines)

    def result(self) -> dict[str, Any]:
        joins = sum(1 for record in self.lines if record["op"] == "join")
        return {
            "events": len(self.lines),
            "joins": joins,
            "leaves": len(self.lines) - joins,
            "path": self.path,
        }
