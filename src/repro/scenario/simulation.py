"""The scenario session object.

A :class:`Simulation` owns one driver built from a
:class:`~repro.scenario.spec.ScenarioSpec`, a composable observer
pipeline, and the spec's spreading protocol.  It is the single loop the
experiment runners, the CLI and sweeps share — churn stepping, observer
cadence and protocol dispatch live here instead of being re-wired per
experiment.

One loop steps the run in windows between observer reads and
checkpoints (the whole run when there is no cadence), in one of two
stepping modes:

* **per-event** (the default): a window is one
  :meth:`~repro.models.base.DynamicNetwork.run_rounds` call, the same
  rounds as the hand-written experiment loops' one ``advance_round``
  per unit-time round — a scenario run is bit-identical to the
  pre-scenario code on the same seed.
* **fused** (``ScenarioSpec(fast_rounds=True)``): churn models exposing
  ``advance_to_time_batched`` advance a window per call, keeping the
  hot loop on the array backend's vectorized path.  The streaming
  drivers run the fused per-round churn kernel (``apply_fused_rounds``),
  which is the per-event trajectory with one coalesced report per
  window; the threshold driver's fuse is the same churn law on a
  different seeded trajectory.  The Poisson/general drivers apply each
  window's births as one batch and then its deaths as one batch —
  births before deaths within a window, an approximation that vanishes
  as the window shrinks (see the drivers' docstrings).  The request is
  advisory: drivers without a batched path run per-event.

A per-event session with no feed (no observer with ``every > 0``) reads
no report, so its windows are
:meth:`~repro.models.base.DynamicNetwork.advance_rounds` calls: the
rounds of ``run_rounds`` with no report built (SDG/SDGR run them
through the fused kernel, bit-identically).  Both paths step whole
rounds only.

Observation windows build topology access **at most once each**: one
:class:`~repro.core.csr.CSRView` shared by every due ``needs_view``
observer (zero-copy on the array backend), and none when no due
observer wants it.

Service plane (see :mod:`repro.service`): a session checkpoints itself
every ``checkpoint_every`` rounds into ``checkpoint_dir`` (resolved from
the constructor, the spec, or the ambient
:func:`~repro.service.options.use_service_options`), and
``Simulation.restore(path)`` resumes one bit-identically — the restored
session's remaining rounds, observer reports, and flood results match an
uninterrupted seeded run exactly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterable

from repro.core.csr import CSRView
from repro.core.snapshot import Snapshot
from repro.errors import ConfigurationError
from repro.flooding.protocols import SpreadingProcess, get_protocol
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork, RoundReport
from repro.scenario.observers import Observer, make_observer
from repro.scenario.registry import build_network
from repro.scenario.spec import ScenarioSpec
from repro.util.rng import SeedLike

#: Most rounds one per-event window runs (:meth:`Simulation.run`).
_MAX_EXACT_WINDOW = 1024


class _ObserverFeed:
    """Accumulates churn events between one observer's reads.

    An observer at cadence ``every=k`` receives a single
    :class:`RoundReport` covering *all* k rounds since its previous
    ``on_round`` — no events are dropped between reads, whichever
    stepping mode produced them.  Feeds persist for the session's
    lifetime (windows span ``run()`` calls and checkpoints), and
    ``last_flush_round`` records the round count of the latest flush so
    the finish notification can tell whether an observer already saw the
    horizon state.
    """

    def __init__(self, observer: Observer, start_time: float) -> None:
        self.observer = observer
        self.window = RoundReport(start_time=start_time, end_time=start_time)
        self.last_flush_round: int | None = None

    def feed(self, report: RoundReport) -> None:
        self.window.extend(report)
        self.window.end_time = report.end_time

    def flush(self, view: CSRView | None, rounds_completed: int) -> None:
        self.observer.on_round(self.window)
        if self.observer.needs_view:
            self.observer.on_view(self.window, view)
        self.window = RoundReport(
            start_time=self.window.end_time, end_time=self.window.end_time
        )
        self.last_flush_round = rounds_completed


def resolve_observer(declaration: Any) -> Observer:
    """Turn an observer declaration into an :class:`Observer` instance.

    Accepts a ready instance, a registry name (``"degrees"``), or a JSON
    mapping (``{"name": "degrees", "params": {"every": 50}}``).
    """
    if isinstance(declaration, Observer):
        return declaration
    if isinstance(declaration, str):
        return make_observer(declaration)
    if isinstance(declaration, dict):
        unknown = sorted(set(declaration) - {"name", "params"})
        if unknown:
            raise ConfigurationError(
                f"unknown observer declaration field(s) {unknown}; "
                "known: ['name', 'params']"
            )
        if "name" not in declaration:
            raise ConfigurationError("observer declaration needs a 'name'")
        params = declaration.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError("observer 'params' must be an object")
        return make_observer(declaration["name"], **params)
    raise ConfigurationError(
        f"cannot interpret observer declaration {declaration!r}"
    )


class Simulation:
    """One scenario session: driver + observers + protocol.

    Args:
        spec: the scenario to realize (omit when restoring).
        observers: observer declarations (instances, names, or mappings).
            When restoring they are optional — the checkpoint's observers
            are rebuilt by registry name — but custom observer classes
            must be re-declared (names must match the checkpoint).
        seed: overrides ``spec.seed`` for this session (the sweep hook).
        checkpoint_every: dump a checkpoint every this many completed
            rounds (0 disables).  Falls back to the spec's
            ``checkpoint_every``, then the ambient
            :func:`~repro.service.options.use_service_options` value.
        checkpoint_dir: directory for cadence checkpoints (same
            resolution order).
        restore_from: a checkpoint file — or a directory, whose most
            advanced ``ckpt-*.json`` is used — to resume from instead of
            building a fresh network.
    """

    def __init__(
        self,
        spec: ScenarioSpec | None = None,
        observers: Iterable[Any] = (),
        seed: SeedLike = None,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
        restore_from: str | Path | None = None,
    ) -> None:
        self.flood_results: list[FloodingResult] = []
        self.restored_from: Path | None = None
        self._checkpoint_tag: str | None = None
        if restore_from is not None:
            if spec is not None:
                raise ConfigurationError(
                    "pass either spec or restore_from, not both (the "
                    "checkpoint carries its own spec)"
                )
            if seed is not None:
                raise ConfigurationError(
                    "seed cannot be overridden when restoring (the "
                    "checkpoint carries the RNG state)"
                )
            self._restore(restore_from, tuple(observers))
        else:
            if spec is None:
                raise ConfigurationError(
                    "Simulation needs a spec (or restore_from=)"
                )
            self.spec = spec
            self.observers: list[Observer] = [
                resolve_observer(o) for o in observers
            ]
            self.network: DynamicNetwork = build_network(spec, seed=seed)
            self.rounds_completed = 0
            self._feeds = [
                _ObserverFeed(o, self.network.now)
                for o in self.observers
                if o.every > 0
            ]
            for observer in self.observers:
                observer.bind(self)
        self.checkpoint_every, self.checkpoint_dir = self._service_settings(
            checkpoint_every, checkpoint_dir
        )

    def _restore(self, source: str | Path, declarations: tuple) -> None:
        from repro.service import checkpoint as checkpoint_io

        checkpoint = checkpoint_io.load_checkpoint(source)
        self.restored_from = checkpoint.path
        self.spec = checkpoint.spec
        self.network = checkpoint_io.rebuild_network(checkpoint)
        self.rounds_completed = checkpoint.rounds_completed
        self.observers = checkpoint_io.restore_observers(
            checkpoint, declarations
        )
        self._feeds = []
        for entry in checkpoint.payload["feeds"]:
            observer = self.observers[int(entry["observer"])]
            feed = _ObserverFeed(observer, self.network.now)
            feed.window = checkpoint_io.decode_report(entry["window"])
            last = entry["last_flush_round"]
            feed.last_flush_round = None if last is None else int(last)
            self._feeds.append(feed)
        # Bind after load_state_dict: sinks re-emit their recorded lines
        # into fresh files here, so streamed output stays exactly-once.
        for observer in self.observers:
            observer.bind(self)

    def _service_settings(
        self,
        checkpoint_every: int | None,
        checkpoint_dir: str | Path | None,
    ) -> tuple[int, str | None]:
        from repro.service.options import current_service_options

        ambient = current_service_options()
        every = checkpoint_every
        if every is None and self.spec.checkpoint_every:
            every = self.spec.checkpoint_every
        if every is None:
            every = ambient.checkpoint_every
        every = int(every or 0)
        if every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {every}"
            )
        directory = checkpoint_dir
        if directory is None:
            directory = self.spec.checkpoint_dir
        if directory is None:
            directory = ambient.checkpoint_dir
        if every and directory is None:
            raise ConfigurationError(
                "checkpoint_every needs a checkpoint directory (pass "
                "checkpoint_dir=, set spec.checkpoint_dir, or enter "
                "use_service_options)"
            )
        return every, None if directory is None else str(directory)

    @classmethod
    def restore(
        cls,
        source: str | Path,
        observers: Iterable[Any] = (),
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> "Simulation":
        """Resume a session from a checkpoint file (or directory)."""
        return cls(
            observers=observers,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            restore_from=source,
        )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    @property
    def state(self):
        """The session's topology backend."""
        return self.network.state

    def snapshot(self) -> Snapshot:
        """Freeze the current topology."""
        return self.network.snapshot()

    def csr_view(self) -> CSRView:
        """Export the current topology into the CSR analysis plane.

        Zero-copy on the array backend; valid until the next mutation
        (i.e. use it before advancing the session further).
        """
        return self.network.state.csr_view(self.network.now)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def save_checkpoint(self, path: str | Path | None = None) -> Path:
        """Write a checkpoint of the session's current state.

        With no *path*, writes a cadence-named file into the session's
        checkpoint directory.  Returns the written path.
        """
        from repro.service import checkpoint as checkpoint_io

        if path is None:
            if self.checkpoint_dir is None:
                raise ConfigurationError(
                    "save_checkpoint() needs a path or a configured "
                    "checkpoint directory"
                )
            if self._checkpoint_tag is None:
                self._checkpoint_tag = checkpoint_io.next_session_tag()
            path = Path(self.checkpoint_dir) / checkpoint_io.checkpoint_filename(
                self._checkpoint_tag, self.rounds_completed
            )
        return checkpoint_io.write_checkpoint(self, path)

    def _maybe_checkpoint(self) -> None:
        if (
            self.checkpoint_every
            and self.rounds_completed > 0
            and self.rounds_completed % self.checkpoint_every == 0
        ):
            self.save_checkpoint()

    # ------------------------------------------------------------------
    # churn stepping
    # ------------------------------------------------------------------

    def run(self, rounds: float | None = None) -> "Simulation":
        """Advance *rounds* unit-time rounds (default: the rounds left to
        the spec horizon — so a restored session completes its original
        run), feeding observers at their cadences, then fire ``on_finish``.

        Returns self, so ``Simulation(spec).run()`` chains.
        """
        if rounds is None:
            rounds = max(float(self.spec.horizon) - self.rounds_completed, 0.0)
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if float(rounds) != int(rounds):
            # Observers, checkpoints and rounds_completed count whole
            # rounds on both stepping paths.
            raise ConfigurationError(
                f"stepping needs a whole number of rounds, got {rounds}"
            )
        self._run_windows(int(rounds))
        self._notify_finish()
        return self

    def _fast_rounds_active(self) -> bool:
        """Whether fused-window stepping is requested *and* available.

        ``fast_rounds`` is advisory: a driver without a batched path
        (``supports_batched_advance``) silently runs per-event.
        """
        return self.spec.fast_rounds and self.network.supports_batched_advance

    def _dispatch(self, report: RoundReport) -> None:
        due: list[_ObserverFeed] = []
        for feed in self._feeds:
            feed.feed(report)
            if feed.observer.due(self.rounds_completed):
                due.append(feed)
        if due:
            # One window, one view, shared by every due observer;
            # skipped entirely when nobody asks.
            view = (
                self.csr_view()
                if any(f.observer.needs_view for f in due)
                else None
            )
            for feed in due:
                feed.flush(view, self.rounds_completed)

    def _run_windows(self, rounds: int) -> None:
        """Step *rounds* rounds in windows, feeding observers and taking
        checkpoints at window ends.

        Windows end on every multiple of the gcd of the attached
        cadences, so every cadence lands on a window end; with no
        cadence the run is one window.  A window is one
        ``advance_to_time_batched`` call when fused stepping is active.
        Otherwise, when no observer has a feed (every cadence is 0), it
        is one ``advance_rounds`` call, which builds no report; else one
        ``run_rounds`` call, whose reports merge into one, cut at
        ``_MAX_EXACT_WINDOW`` rounds, which bounds the records a window
        holds and changes no output.
        """
        network = self.network
        fused = self._fast_rounds_active()
        unrecorded = not fused and not self._feeds
        cadences = [f.observer.every for f in self._feeds]
        if self.checkpoint_every:
            cadences.append(self.checkpoint_every)
        stride = math.gcd(*cadences) if cadences else 0
        end = network.now + rounds
        left = rounds
        while left > 0:
            count = left
            if stride:
                count = min(count, stride - self.rounds_completed % stride)
            report = None
            if unrecorded:
                network.advance_rounds(count)
            elif fused:
                report = network.advance_to_time_batched(
                    end if count == left else network.now + count
                )
            else:
                count = min(count, _MAX_EXACT_WINDOW)
                reports = network.run_rounds(count)
                report = RoundReport(reports[0].start_time, reports[-1].end_time)
                for part in reports:
                    report.extend(part)
            left -= count
            self.rounds_completed += count
            if report is not None:
                self._dispatch(report)
            self._maybe_checkpoint()

    def _notify_finish(self) -> None:
        if not self.observers:
            return
        # Observers whose cadence landed exactly on the horizon already
        # saw the final state in their last flush: re-notifying them
        # would double-count the final window (the cadence edge case).
        flushed_now = {
            id(feed.observer)
            for feed in self._feeds
            if feed.last_flush_round == self.rounds_completed
            and self.rounds_completed > 0
        }
        finishing = [o for o in self.observers if id(o) not in flushed_now]
        if not finishing:
            return
        view = (
            self.csr_view()
            if any(o.needs_view for o in finishing)
            else None
        )
        for observer in finishing:
            observer.on_finish()
            if observer.needs_view:
                observer.on_view(None, view)

    # ------------------------------------------------------------------
    # protocol dispatch
    # ------------------------------------------------------------------

    def protocol(self) -> SpreadingProcess:
        """The spec's spreading protocol (raises when none is configured)."""
        if self.spec.protocol is None:
            raise ConfigurationError(
                "this scenario configures no spreading protocol; set "
                "spec.protocol or pass protocol=... to flood()"
            )
        return get_protocol(self.spec.protocol)

    def flood(self, **overrides: Any) -> FloodingResult:
        """Run the configured protocol on the session's network.

        ``protocol_params`` from the spec are the defaults; keyword
        *overrides* win.  Pass ``protocol="name"`` to run a different
        protocol than the spec's.
        """
        name = overrides.pop("protocol", None)
        protocol = get_protocol(name) if name is not None else self.protocol()
        params = {**self.spec.protocol_params, **overrides}
        result = protocol(self.network, **params)
        self.flood_results.append(result)
        for observer in self.observers:
            observer.on_flood(result)
        return result

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def results(self) -> dict[str, Any]:
        """All observer results, keyed by observer name."""
        collected: dict[str, Any] = {}
        for observer in self.observers:
            key = observer.name
            index = 2
            while key in collected:  # two observers of the same kind
                key = f"{observer.name}_{index}"
                index += 1
            collected[key] = observer.result()
        return collected


def simulate(
    spec: ScenarioSpec,
    seed: SeedLike = None,
    observers: Iterable[Any] = (),
) -> Simulation:
    """Build a session and run it to the spec's horizon in one call.

    The workhorse of the ported experiment runners::

        sim = simulate(spec.with_(n=n, d=d, horizon=n), seed=child)
        fraction = isolated_fraction(sim.snapshot())
    """
    return Simulation(spec, observers=observers, seed=seed).run()
