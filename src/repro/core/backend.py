"""The topology backend base class and its one constructor.

A :class:`GraphBackend` owns the mutable node/slot/adjacency state of one
dynamic network.  :class:`~repro.core.array_backend.ArraySlotBackend` — a
dense NumPy slot store with free-list row recycling, batched births, the
fused streaming-round kernel and a vectorized flooding frontier — is the
only implementation in the library.  This base class holds what any
backend shares: the alive set as an
:class:`~repro.util.sampling.IndexedSet` (so uniform sampling consumes
the RNG identically on every implementation), the mutation epoch and
touched-node tracking, id allocation, ``sample_*``, ``apply_deaths`` and
the reference ``youngest_alive`` (the array backend overrides it with one
vectorised pass that picks the same node).

The readable dict-of-dicts reference backend the library started from
lives in ``tests/oracles/dict_backend.py``: the parity suites build
networks on it by passing an instance as ``backend=`` (which
:func:`create_backend` returns unchanged) and check that seeded churn
trajectories match the array backend's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot
from repro.errors import ConfigurationError
from repro.util.sampling import IndexedSet


class GraphBackend(ABC):
    """Mutable topology state of a dynamic network at one instant.

    The backend tracks the alive-node set (with O(1) uniform sampling),
    per-node out-request slots, the reverse slot index (what makes deaths
    O(degree)), and the undirected adjacency with multiplicities.  It is
    policy-agnostic: birth/death/regeneration *decisions* live in
    :mod:`repro.core.edge_policy`; the backend only applies topology
    deltas and maintains invariants.
    """

    def __init__(self) -> None:
        self.alive = IndexedSet()
        self._next_id = 0
        self._mutation_epoch = 0
        self._touched: set[int] | None = None

    # ------------------------------------------------------------------
    # mutation tracking (the incremental analysis plane's dirty set)
    # ------------------------------------------------------------------

    def mutation_epoch(self) -> int:
        """Monotone counter, bumped once per topology mutation.

        Two equal epochs guarantee the topology has not changed in
        between; this is what lets cached analyses (CSR rebuilds, the
        incremental :class:`~repro.analysis.incremental.ProbeCache`)
        skip work without inspecting the graph.
        """
        return self._mutation_epoch

    def track_mutations(self) -> None:
        """Start accumulating the ids of nodes touched by mutations.

        Idempotent.  Once enabled, every mutation records the node ids
        whose incident topology it changed — for an edge change both
        endpoints, for a death the dead node plus every former
        neighbour, for a birth the newborn plus its targets — until
        :meth:`drain_touched` collects them.  Tracking costs one set
        update per mutation and nothing when disabled.
        """
        if self._touched is None:
            self._touched = set()

    def drain_touched(self) -> set[int]:
        """Return and reset the ids touched since the last drain.

        The returned set is a conservative dirty set: any node whose
        incident edges, existence, or neighbourhood membership changed
        since the previous drain appears in it (possibly alongside ids
        that have since died).  Requires :meth:`track_mutations`.
        """
        if self._touched is None:
            raise ConfigurationError(
                "drain_touched() needs track_mutations() enabled first"
            )
        touched = self._touched
        self._touched = set()
        return touched

    def _note_mutation(self, ids: Iterable[int] = (), count: int = 1) -> None:
        """Bump the epoch by *count* mutations; record *ids* as touched
        when tracking."""
        self._mutation_epoch += count
        if self._touched is not None:
            self._touched.update(ids)

    # ------------------------------------------------------------------
    # basic queries (shared: every backend keeps `alive` as an IndexedSet)
    # ------------------------------------------------------------------

    def num_alive(self) -> int:
        return len(self.alive)

    def alive_ids(self) -> list[int]:
        """Snapshot list of alive node ids (internal order)."""
        return self.alive.as_list()

    def is_alive(self, node_id: int) -> bool:
        return node_id in self.alive

    def allocate_id(self) -> int:
        """Reserve the next node id (birth order)."""
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def peek_next_id(self) -> int:
        """The id the next :meth:`allocate_id` call will return.

        Lets batched drivers pre-compute prospective newborn ids without
        committing the allocation (the threshold window fuser commits
        only the verified prefix of a window's births).
        """
        return self._next_id

    def allocate_ids(self, count: int) -> list[int]:
        """Reserve *count* consecutive node ids (for batched births)."""
        first = self._next_id
        self._next_id += count
        return list(range(first, self._next_id))

    def ensure_id_floor(self, next_id: int) -> None:
        """Guarantee future :meth:`allocate_id` calls return >= *next_id*.

        Used by externally-driven drivers (trace replay) whose node ids
        come from the input rather than the allocator.
        """
        self._next_id = max(self._next_id, int(next_id))

    # ------------------------------------------------------------------
    # abstract topology interface
    # ------------------------------------------------------------------

    @abstractmethod
    def neighbors(self, node_id: int) -> Iterable[int]:
        """Current undirected neighbours of *node_id*, each id once.

        Their iteration order is unspecified: every consumer that exposes
        an order (``edges_destroyed``, ``random_neighbor``'s draw,
        lossy flooding's draws) sorts the ids ascending.
        """

    @abstractmethod
    def degree(self, node_id: int) -> int:
        """Undirected degree (number of distinct neighbours)."""

    @abstractmethod
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""

    @abstractmethod
    def record(self, node_id: int) -> NodeRecord:
        """Per-node record (backends may synthesize it on demand)."""

    @abstractmethod
    def birth_time(self, node_id: int) -> float:
        """Birth time of an alive node."""

    @abstractmethod
    def out_slots_of(self, node_id: int) -> list[int | None]:
        """Current out-request destinations of an alive node."""

    @abstractmethod
    def in_slot_count(self, node_id: int) -> int:
        """Number of slots of other nodes currently pointing here."""

    @abstractmethod
    def add_node(self, node_id: int, birth_time: float, num_slots: int) -> NodeRecord:
        """Register a newborn with *num_slots* empty out-slots."""

    @abstractmethod
    def assign_slot(self, source: int, slot_index: int, target: int) -> None:
        """Point ``source``'s slot *slot_index* at *target* (must be empty)."""

    @abstractmethod
    def clear_slot(self, source: int, slot_index: int) -> int | None:
        """Empty ``source``'s slot *slot_index*; returns the old target."""

    @abstractmethod
    def remove_node(self, node_id: int, death_time: float) -> list[tuple[int, int]]:
        """Kill *node_id*; returns the orphaned ``(source, slot)`` pairs."""

    @abstractmethod
    def snapshot(self, time: float) -> Snapshot:
        """Freeze the current topology into an immutable :class:`Snapshot`."""

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if internal indices disagree."""

    # ------------------------------------------------------------------
    # sampling (identical RNG consumption on every backend)
    # ------------------------------------------------------------------

    def sample_targets(
        self, rng: np.random.Generator, k: int, exclude: int
    ) -> list[int]:
        """Sample *k* destinations uniformly (with replacement), never *exclude*.

        Mirrors the paper's edge-creation rule: each of the ``d`` requests
        independently picks a uniformly random node of the current network.
        Returns fewer than *k* ids (possibly none) when no candidate exists.
        """
        return self.alive.sample_many(rng, k, exclude=exclude)

    def sample_alive(self, rng: np.random.Generator) -> int:
        """Uniformly random alive node (the Poisson death rule)."""
        return self.alive.sample(rng)

    # ------------------------------------------------------------------
    # shared derived queries and batch deaths
    # ------------------------------------------------------------------

    def youngest_alive(self) -> int:
        """The most recently born alive node (flooding's default source)."""
        alive = self.alive_ids()
        if not alive:
            raise ConfigurationError("network has no alive nodes")
        return max(alive, key=self.birth_time)

    def apply_deaths(
        self, node_ids: Sequence[int], death_time: float
    ) -> list[tuple[int, int]]:
        """Remove a batch of nodes; returns orphaned slots of *survivors*.

        Orphans whose owner also died within the batch are dropped (their
        slots vanished with the owner), so the caller's edge policy can
        repair the returned list directly.
        """
        orphans: list[tuple[int, int]] = []
        for node_id in node_ids:
            orphans.extend(self.remove_node(node_id, death_time=death_time))
        return [(s, j) for s, j in orphans if self.is_alive(s)]

    @staticmethod
    def birth_times_list(
        node_ids: Sequence[int], times: Sequence[float] | float
    ) -> list[float]:
        if np.isscalar(times):
            return [float(times)] * len(node_ids)
        times_list = [float(t) for t in np.asarray(times).ravel()]
        if len(times_list) != len(node_ids):
            raise ConfigurationError(
                f"{len(node_ids)} births but {len(times_list)} birth times"
            )
        return times_list


def resolve_backend_name(name: str | None) -> str:
    """The backend a recorded or requested name stands for: ``"array"``.

    ``None`` (the default) and ``"array"`` resolve to ``"array"``; any
    other name — ``"dict"`` in specs, sweep stores and checkpoints
    written when the library shipped two backends — raises a
    :class:`~repro.errors.ConfigurationError`.
    """
    if name is None or name == "array":
        return "array"
    raise ConfigurationError(
        f"unknown backend {name!r}: the library has one graph backend, "
        "'array'; the dict backend is now a test oracle in tests/oracles/"
    )


def create_backend(backend: str | GraphBackend | None = None) -> GraphBackend:
    """Instantiate the topology backend.

    Args:
        backend: a backend *instance* (returned unchanged — the seam
            through which tests inject the dict oracle), ``"array"``, or
            ``None`` for a fresh
            :class:`~repro.core.array_backend.ArraySlotBackend`.
    """
    if isinstance(backend, GraphBackend):
        return backend
    resolve_backend_name(backend)
    from repro.core.array_backend import ArraySlotBackend

    return ArraySlotBackend()
