"""Shared infrastructure for the experiment harness."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.util.tables import render_kv, render_table


@dataclass
class ExperimentResult:
    """The output of one experiment run.

    Attributes:
        experiment_id: registry id (e.g. ``"EXP-01"``).
        title: human-readable experiment name.
        paper_reference: the theorem/lemma/table the experiment reproduces.
            Runners leave both empty: ``run_experiment`` fills them in
            from the registration, their one source.
        columns: column order for the result table.
        rows: one dict per table row.
        verdict: headline comparisons (measured vs paper, pass/fail flags).
        notes: free-form caveats (scaled-down constants, substitutions).
        elapsed_seconds: wall-clock runtime.
    """

    experiment_id: str
    title: str = ""
    paper_reference: str = ""
    columns: Sequence[str] = ()
    rows: list[Mapping[str, Any]] = field(default_factory=list)
    verdict: dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    elapsed_seconds: float = 0.0

    def to_text(self) -> str:
        """Render the full experiment report as text."""
        header = (
            f"[{self.experiment_id}] {self.title}\n"
            f"reproduces: {self.paper_reference}"
        )
        parts = [header]
        if self.rows:
            parts.append(render_table(self.columns, self.rows))
        if self.verdict:
            parts.append(render_kv(self.verdict, title="verdict:"))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        parts.append(f"elapsed: {self.elapsed_seconds:.1f}s")
        return "\n".join(parts)

    def passed(self) -> bool:
        """True when every boolean entry in the verdict is True."""
        return all(
            value for value in self.verdict.values() if isinstance(value, bool)
        )

    def write_csv(self, directory: str | Path) -> Path:
        """Write the result rows as ``<directory>/<experiment_id>.csv``.

        The verdict is appended as ``# key=value`` comment lines so a CSV
        captures the full outcome; returns the written path.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=list(self.columns), extrasaction="ignore"
            )
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k) for k in self.columns})
            for key, value in self.verdict.items():
                handle.write(f"# {key}={value}\n")
        return path


class Stopwatch:
    """Context manager measuring elapsed wall-clock time."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = time.perf_counter() - self._start

