"""Layer spans recorded from the benchmark's side of each library call.

A :class:`Tracer` keeps, per layer name, the *self time* of every span
opened under that name: the span's duration minus the part covered by
spans opened inside it.  A flood that steps churn rounds therefore
charges those rounds to ``churn`` and only its own work to ``flood``.
Totals stay in memory; the harness reads them after each unit of work.

Tracing is off unless the harness passes a tracer, and an untraced run
installs no wrappers at all, so the end-to-end figures carry no tracing
cost.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Tracer:
    """Self-time totals per layer, plus named work counters."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # One entry per open span: the time its child spans have taken.
        self._child_time: list[float] = []

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._child_time.pop()
            self.seconds[layer] += elapsed - children
            if self._child_time:
                self._child_time[-1] += elapsed

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with every call recorded as a span of *layer*."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def merge(self, seconds: dict[str, float], counts: dict[str, float]) -> None:
        """Fold in totals recorded by another process."""
        for layer, value in seconds.items():
            self.seconds[layer] += value
        for name, value in counts.items():
            self.counts[name] += value

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        return dict(self.seconds), dict(self.counts)
