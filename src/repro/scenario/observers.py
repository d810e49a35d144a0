"""Composable observers for scenario sessions.

An :class:`Observer` watches a running :class:`~repro.scenario.simulation.Simulation`
through its hooks — ``on_round(report)`` / ``on_view(report, view)`` at
its configured round cadence, ``on_flood(result)`` after each protocol
run, and ``on_finish()`` (plus a final ``on_view``) when the session's
horizon completes — and exposes what it measured through ``result()``.
Observers are composable: a session runs any number of them in one pass
over the trajectory, which is how one simulation serves several
measurements without re-running the churn.

Observers that set ``needs_view`` get the topology as a
:class:`~repro.core.csr.CSRView` (zero-copy on the array backend), built
**at most once per observation window** and shared by every due
observer.  The view is valid only within its window; an observer that
must keep the topology longer can freeze one with
``self.simulation.snapshot()``.  Observers that only need live counters
leave ``needs_view`` off, and the session builds no view for them.
Observers with ``every = 0`` observe only the final state, which keeps
the hot loop eligible for the batched ``advance_to_time`` windows.

Stock observers (registry names in parentheses): network size
(``size``), degree statistics (``degrees``), vertex-expansion probes
(``expansion``), isolated-node counts (``isolated``) and flooding
coverage (``coverage``).  Custom observers subclass :class:`Observer`;
:func:`register_observer` makes them addressable from JSON scenario
documents.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.degrees import degree_summary
from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.analysis.incremental import ProbeCache
from repro.analysis.isolated import count_isolated
from repro.core.csr import CSRView
from repro.errors import ConfigurationError
from repro.flooding.result import FloodingResult
from repro.models.base import RoundReport


class Observer:
    """Base class: bind → (on_round | on_view | on_flood)* → on_finish → result.

    Args:
        every: round cadence for :meth:`on_round`/:meth:`on_view`; ``0``
            (the default) means "final state only".
    """

    name: str = "observer"
    #: Whether this observer's hooks want a :class:`CSRView` (the
    #: vectorized analysis plane).  Views are shared per window.
    needs_view: bool = False

    def __init__(self, every: int = 0) -> None:
        if every < 0:
            raise ConfigurationError(f"every must be >= 0, got {every}")
        self.every = int(every)
        self.simulation: Any = None

    def bind(self, simulation: Any) -> None:
        """Attach to a session (called once, before any other hook)."""
        self.simulation = simulation

    def due(self, rounds_completed: int) -> bool:
        """Whether this observer should fire after this many rounds."""
        return self.every > 0 and rounds_completed % self.every == 0

    def on_round(self, report: RoundReport) -> None:
        """One observation window ended; *report* covers all its rounds."""

    def on_view(self, report: RoundReport | None, view: CSRView) -> None:
        """The window's shared analysis view (only when ``needs_view``).

        *report* is the same windowed report :meth:`on_round` receives,
        or ``None`` when the hook fires for the session's final state.
        """

    def on_flood(self, result: FloodingResult) -> None:
        """A protocol run finished on the session's network."""

    def on_finish(self) -> None:
        """The session's run() horizon completed."""

    def result(self) -> dict[str, Any]:
        """What this observer measured (JSON-friendly)."""
        return {}

    def state_dict(self) -> dict[str, Any]:
        """The observer's resumable state (service-plane checkpoints).

        The default captures every public instance attribute except the
        session binding — which covers every stock observer, whose
        accumulated series and parameters are all public and JSON-able.
        Observers holding non-serializable public state (open handles,
        caches) must override this pair; private (``_``-prefixed) caches
        are skipped and must be rebuildable after
        :meth:`load_state_dict` + :meth:`bind`.
        """
        return {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and key != "simulation"
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (called before :meth:`bind`)."""
        for key, value in state.items():
            setattr(self, key, value)


class SizeObserver(Observer):
    """Alive-node counts and cumulative churn volume over time."""

    name = "size"

    def __init__(self, every: int = 1) -> None:
        super().__init__(every=every)
        self.times: list[float] = []
        self.sizes: list[int] = []
        self.total_births = 0
        self.total_deaths = 0

    def _record(self) -> None:
        network = self.simulation.network
        self.times.append(network.now)
        self.sizes.append(network.num_alive())

    def on_round(self, report: RoundReport) -> None:
        self.total_births += len(report.births)
        self.total_deaths += len(report.deaths)
        self._record()

    def on_finish(self) -> None:
        self._record()

    def result(self) -> dict[str, Any]:
        return {
            "times": list(self.times),
            "sizes": list(self.sizes),
            "final_size": self.sizes[-1] if self.sizes else None,
            "total_births": self.total_births,
            "total_deaths": self.total_deaths,
        }


class DegreeStatsObserver(Observer):
    """Mean/min/max degree from the shared per-window analysis view."""

    name = "degrees"
    needs_view = True

    def __init__(self, every: int = 0) -> None:
        super().__init__(every=every)
        self.series: list[dict[str, float]] = []

    def on_view(self, report: RoundReport | None, view: CSRView) -> None:
        del report
        summary = degree_summary(view)
        self.series.append(
            {
                "time": view.time,
                "mean_degree": summary.mean_degree,
                "min_degree": summary.min_degree,
                "max_degree": summary.max_degree,
            }
        )

    def result(self) -> dict[str, Any]:
        return {"series": list(self.series), "final": self.series[-1] if self.series else None}


class ExpansionObserver(Observer):
    """Adversarial vertex-expansion probes (upper bounds on the true ε).

    Runs the vectorized portfolio on the shared per-window view.  The
    probe parameters pass straight through to
    :func:`~repro.analysis.expansion.adversarial_expansion_upper_bound`
    — bound ``max_size`` (and trim ``num_random_sets``) to keep large-n
    cadenced probes tractable; the defaults probe the full size range.

    With ``incremental=True`` the probes run through a
    :class:`~repro.analysis.incremental.ProbeCache`: BFS balls untouched
    by churn since the previous window replay from the cache, so dense
    cadences with small churn deltas cost a fraction of a cold probe —
    while every recorded value stays bit-identical to the cold path.
    """

    name = "expansion"
    needs_view = True

    def __init__(
        self,
        every: int = 0,
        seed: int = 0,
        num_random_sets: int = 200,
        greedy_restarts: int = 8,
        min_size: int = 1,
        max_size: int | None = None,
        incremental: bool = False,
    ) -> None:
        super().__init__(every=every)
        self.seed = seed
        self.num_random_sets = num_random_sets
        self.greedy_restarts = greedy_restarts
        self.min_size = min_size
        self.max_size = max_size
        self.incremental = bool(incremental)
        self._cache: ProbeCache | None = None
        self.series: list[dict[str, float]] = []

    def _probe_cache(self) -> ProbeCache:
        if self._cache is None:
            self._cache = ProbeCache(
                self.simulation.network.state,
                num_random_sets=self.num_random_sets,
                greedy_restarts=self.greedy_restarts,
                min_size=self.min_size,
                max_size=self.max_size,
            )
        return self._cache

    def on_view(self, report: RoundReport | None, view: CSRView) -> None:
        del report
        if view.n < 2:
            return
        if self.incremental:
            probe = self._probe_cache().probe(view, seed=self.seed)
        else:
            probe = adversarial_expansion_upper_bound(
                view,
                seed=self.seed,
                num_random_sets=self.num_random_sets,
                greedy_restarts=self.greedy_restarts,
                min_size=self.min_size,
                max_size=self.max_size,
            )
        self.series.append(
            {
                "time": view.time,
                "min_ratio": probe.min_ratio,
                "witness_size": probe.witness_size,
            }
        )

    def result(self) -> dict[str, Any]:
        ratios = [entry["min_ratio"] for entry in self.series]
        return {
            "series": list(self.series),
            "worst_ratio": min(ratios) if ratios else None,
        }


class IsolatedNodesObserver(Observer):
    """Isolated-node counts and fractions (the Lemma 3.5/4.10 quantity)."""

    name = "isolated"
    needs_view = True

    def __init__(self, every: int = 0) -> None:
        super().__init__(every=every)
        self.series: list[dict[str, float]] = []

    def on_view(self, report: RoundReport | None, view: CSRView) -> None:
        del report
        count = count_isolated(view)
        nodes = view.n
        self.series.append(
            {
                "time": view.time,
                "isolated": count,
                "fraction": count / nodes if nodes else 0.0,
            }
        )

    def result(self) -> dict[str, Any]:
        return {
            "series": list(self.series),
            "final": self.series[-1] if self.series else None,
        }


class CoverageObserver(Observer):
    """Informed-set coverage of the session's protocol runs."""

    name = "coverage"

    def __init__(self) -> None:
        super().__init__(every=0)
        self.runs: list[dict[str, Any]] = []

    def on_flood(self, result: FloodingResult) -> None:
        self.runs.append(
            {
                "source": result.source,
                "completed": result.completed,
                "completion_round": result.completion_round,
                "extinct": result.extinct,
                "rounds_run": result.rounds_run,
                "max_informed": result.max_informed,
                "final_fraction": result.final_fraction,
                "informed_sizes": list(result.informed_sizes),
                "network_sizes": list(result.network_sizes),
            }
        )

    def result(self) -> dict[str, Any]:
        return {
            "runs": list(self.runs),
            "all_completed": all(r["completed"] for r in self.runs)
            if self.runs
            else None,
        }


OBSERVERS: dict[str, type[Observer]] = {}


def register_observer(observer_cls: type[Observer]) -> type[Observer]:
    """Register an observer class under its ``name`` for JSON scenarios."""
    name = observer_cls.name
    if not name or name == Observer.name:
        raise ConfigurationError("observer class must define a unique name")
    if name in OBSERVERS:
        raise ConfigurationError(f"duplicate observer name {name!r}")
    OBSERVERS[name] = observer_cls
    return observer_cls


for _cls in (
    SizeObserver,
    DegreeStatsObserver,
    ExpansionObserver,
    IsolatedNodesObserver,
    CoverageObserver,
):
    register_observer(_cls)


def _load_service_observers() -> None:
    """Register the service-plane observers (lazy import-cycle guard).

    ``repro.service`` imports this module for the :class:`Observer` base
    class, so the service observers cannot be imported at module scope
    here; importing them on first registry lookup keeps ``metrics`` and
    ``record_trace`` addressable from JSON scenario documents.
    """
    import repro.service.metrics  # noqa: F401  (registers on import)
    import repro.service.recorder  # noqa: F401


def observer_names() -> list[str]:
    """All registered observer names, sorted."""
    _load_service_observers()
    return sorted(OBSERVERS)


def make_observer(name: str, **params: Any) -> Observer:
    """Instantiate a registered observer by name."""
    if name not in OBSERVERS:
        _load_service_observers()
    try:
        observer_cls = OBSERVERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown observer {name!r}; known: {observer_names()}"
        ) from None
    try:
        return observer_cls(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for observer {name!r}: {exc}"
        ) from None
