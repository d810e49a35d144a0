"""Common driver interface for dynamic networks.

A *driver* owns a :class:`~repro.core.backend.GraphBackend`, an
:class:`~repro.core.edge_policy.EdgePolicy` and a source of randomness, and
advances the network through time.  Flooding and the experiment harness only
rely on the small interface defined here:

* ``now`` — current simulation time;
* ``snapshot()`` — freeze the current topology;
* ``advance_round()`` — advance time by exactly one unit (one streaming
  round, or one unit of continuous time), returning the churn events that
  occurred, so observers can tell who was born/died and which edges changed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.backend import GraphBackend, create_backend
from repro.core.edge_policy import EdgePolicy
from repro.core.snapshot import Snapshot
from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventRecord, decode_round_log
from repro.util.rng import SeedLike, make_rng


class RoundReport:
    """Everything that happened during one unit-time round (or a window).

    ``events`` lists the churn records in order.  A report of one exact
    streaming round (:meth:`logged`) holds the plain log entry the window
    kernel wrote instead; the first read of ``events`` builds its
    records from that entry alone and caches them (``births`` and
    ``deaths`` read the entry without building them).  :meth:`extend`
    appends another report's events without reading them: the merged
    report keeps the unread rounds and reads them when its own
    ``events`` are read, so every report holding a round shares that
    round's record objects.  Nothing else tells a
    lazy report from a read one: it compares, prints and pickles as its
    records.
    """

    __slots__ = ("start_time", "end_time", "_events", "_log", "_unread")

    def __init__(
        self,
        start_time: float,
        end_time: float,
        events: list[EventRecord] | None = None,
    ) -> None:
        self.start_time = start_time
        self.end_time = end_time
        self._events = [] if events is None else events
        self._log: tuple | None = None  # an unread round's kernel log
        self._unread: list[RoundReport] = []  # unread rounds after _events

    @classmethod
    def logged(cls, start_time: float, end_time: float, log: tuple) -> RoundReport:
        """The report of one exact round, from its kernel log entry
        (see :func:`~repro.sim.events.decode_round_log`)."""
        report = cls(start_time, end_time)
        report._log = log
        return report

    @property
    def events(self) -> list[EventRecord]:
        if self._log is not None:
            self._events = decode_round_log(self._log)
            self._log = None
        elif self._unread:
            unread, self._unread = self._unread, []
            for part in unread:
                self._events.extend(part.events)
        return self._events

    def extend(self, other: RoundReport) -> None:
        """Append *other*'s events after this report's, leaving unread
        rounds unread wherever that keeps the order."""
        if other._log is not None:
            self._unread.append(other)
        elif other._events and self._unread:
            self.events.extend(other.events)
        else:
            self._events.extend(other._events)
            self._unread.extend(other._unread)

    @property
    def births(self) -> list[int]:
        if self._log is not None:  # an unread round: its one newborn
            return [self._log[5]]
        # Flattened so batched NodesBorn records report every newborn.
        return [nid for e in self.events if e.is_birth for nid in e.node_ids]

    @property
    def deaths(self) -> list[int]:
        if self._log is not None:  # an unread round: its death, if any
            dead = self._log[1]
            return [] if dead is None else [dead]
        # Flattened so batched NodesDied records report every victim.
        return [nid for e in self.events if e.is_death for nid in e.node_ids]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoundReport):
            return NotImplemented
        return (self.start_time, self.end_time, self.events) == (
            other.start_time,
            other.end_time,
            other.events,
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"RoundReport(start_time={self.start_time!r}, "
            f"end_time={self.end_time!r}, events={self.events!r})"
        )

    def __reduce__(self) -> tuple:
        return (RoundReport, (self.start_time, self.end_time, self.events))


class DynamicNetwork(ABC):
    """Base class for the streaming and Poisson network drivers.

    Args:
        policy: edge policy deciding birth/death edge consequences.
        seed: RNG seed.
        backend: ``None`` or ``"array"`` for a fresh
            :class:`~repro.core.array_backend.ArraySlotBackend`, or a
            ready-made :class:`~repro.core.backend.GraphBackend` instance
            (see :func:`repro.core.backend.create_backend`).
    """

    def __init__(
        self,
        policy: EdgePolicy,
        seed: SeedLike = None,
        backend: str | GraphBackend | None = None,
    ) -> None:
        self.state: GraphBackend = create_backend(backend)
        self.policy = policy
        self.rng: np.random.Generator = make_rng(seed)
        self.clock = SimClock()

    @property
    def d(self) -> int:
        """The out-degree parameter of the model."""
        return self.policy.d

    @property
    def now(self) -> float:
        return self.clock.now

    def num_alive(self) -> int:
        return self.state.num_alive()

    def snapshot(self) -> Snapshot:
        """Freeze the current topology (the paper's ``G_t``)."""
        return self.state.snapshot(self.now)

    @abstractmethod
    def advance_round(self) -> RoundReport:
        """Advance simulation time by exactly one unit."""

    def run_rounds(self, count: int) -> list[RoundReport]:
        """Advance *count* unit-time rounds, returning their reports."""
        return [self.advance_round() for _ in range(count)]

    #: Most rounds one :meth:`run_rounds` call of :meth:`advance_rounds`
    #: runs, which bounds the reports it holds at once.
    _UNRECORDED_CHUNK = 1024

    def advance_rounds(self, count: int) -> None:
        """Advance *count* unit-time rounds and keep no reports: the
        rounds of :meth:`run_rounds`, for callers that read none."""
        while count > 0:
            chunk = min(count, self._UNRECORDED_CHUNK)
            self.run_rounds(chunk)
            count -= chunk

    def _pure_birth_rounds(self, start: int, count: int, exact: bool) -> list[int]:
        """Apply rounds ``start + 1 … start + count`` as one pure-birth batch.

        Definition 3.2's rounds before any death: round ``r`` births id
        ``r − 1`` at time ``r``.  *exact* writes the batch as a
        :meth:`~repro.core.edge_policy.EdgePolicy.handle_birth` loop would
        (``handle_birth_prefix``), otherwise through the one-call
        ``handle_births``.  Advances the clock to ``start + count`` and
        returns the newborn ids; callers keep their own round counter.
        """
        node_ids = self.state.allocate_ids(count)
        if node_ids[0] != start:
            raise SimulationError(
                f"id drift: allocated {node_ids[0]}, round {start + 1} "
                f"expects {start}"
            )
        times = np.arange(start + 1, start + count + 1, dtype=np.float64)
        births = (
            self.policy.handle_birth_prefix if exact else self.policy.handle_births
        )
        births(self.state, node_ids, times, self.rng)
        self.clock.advance_to(float(start + count))
        return node_ids

    # ------------------------------------------------------------------
    # batched churn windows
    # ------------------------------------------------------------------

    #: Whether this driver implements :meth:`_advance_window_batched`.
    supports_batched_advance: bool = False

    def advance_to_time_batched(
        self, target: float, window: float | None = None
    ) -> RoundReport:
        """Advance to *target* applying churn in grouped batches.

        Splits ``[now, target]`` into windows of at most *window* time
        units (default: one window for the whole span) and hands each to
        the driver's ``_advance_window_batched``, which applies the
        window's churn through the driver's batched path — see the
        driver docstrings for each model's law and stream.

        Only drivers with ``supports_batched_advance`` implement this.
        The Poisson/general drivers group a window's churn into one
        births batch and one deaths batch, which approximates the
        per-event law on a different seeded trajectory.  The streaming
        models — whose schedule interleaves a death and a birth every
        round — instead run the window through the fused per-round
        kernel (``apply_fused_rounds``), which takes the per-event
        draws: the per-event trajectory, reported as one coalesced
        record pair per window.  The threshold driver fuses its
        pure-birth stretches on a stream of its own.
        """
        if not self.supports_batched_advance:
            raise NotImplementedError(
                f"{type(self).__name__} has no batched advance path"
            )
        start = self.now
        report = RoundReport(start_time=start, end_time=start)
        if target <= start:
            self.clock.advance_to(target)
            report.end_time = self.now
            return report
        if window is None or window <= 0:
            window = target - start
        while self.now < target:
            window_end = min(self.now + window, target)
            self._advance_window_batched(window_end, report)
        report.end_time = self.now
        return report

    def _advance_window_batched(self, target: float, report: RoundReport) -> None:
        """Apply one grouped-churn window ending at *target* (driver hook)."""
        raise NotImplementedError
