"""Pluggable topology backends.

A :class:`GraphBackend` owns the mutable node/slot/adjacency state of one
dynamic network.  Two implementations ship with the library:

* :class:`~repro.core.graph.DictBackend` — the original dict-of-dicts
  state; simple, fully introspectable, and the reference implementation
  for invariant checking;
* :class:`~repro.core.array_backend.ArraySlotBackend` — a dense NumPy
  slot store with free-list row recycling, batched births, and a
  vectorized flooding frontier; the same seeded churn trajectory as the
  dict backend on the per-event path, and ~10–20× faster end-to-end on
  the batched churn+flooding hot loop.

Both backends keep the alive set in the same
:class:`~repro.util.sampling.IndexedSet` structure, so uniform sampling
consumes the RNG identically: seeded *churn trajectories* (births, deaths,
regenerated edges, snapshots) and the :func:`flood_discrete` /
:func:`flood_discretized` processes are bit-identical on either backend
(the cross-backend parity property tests rely on this).  Processes that
draw randomness per *neighbour list* (push/pull gossip, lossy flooding,
token walks) are distribution-equivalent but not trajectory-identical,
because the backends enumerate neighbours in different orders.

Backend selection: pass ``backend="dict"`` / ``"array"`` to any driver, or
set the ``REPRO_BACKEND`` environment variable to change the default for a
whole process (this is how CI runs the suite on both backends), or use the
:func:`use_backend` context manager to override the default temporarily
(this is how the experiment registry threads the choice through runners
without changing every experiment signature).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.csr import CSRView, csr_view_from_adjacency
from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot
from repro.errors import ConfigurationError
from repro.util.sampling import IndexedSet

#: Names accepted by :func:`create_backend` / ``REPRO_BACKEND``.
BACKEND_NAMES = ("dict", "array")

_ENV_VAR = "REPRO_BACKEND"
# A ContextVar (not a module global) so concurrent use_backend scopes —
# threads or asyncio tasks running experiments in parallel — cannot leak
# their override into each other.
_override: ContextVar[str | None] = ContextVar("repro_backend_override", default=None)


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
    # basic queries (shared: both backends keep `alive` as an IndexedSet)
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
    # state serialization (service plane)
    # ------------------------------------------------------------------

    def dump_state(self) -> dict:
        """Serialize the full mutable backend state to a JSON-able dict.

        The payload must capture everything that influences future
        seeded trajectories — including iteration orders that feed RNG
        draws (alive-set order, adjacency order) — so that
        :meth:`restore_state` reproduces the run bit-identically.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def restore_state(self, payload: dict) -> None:
        """Restore state previously produced by :meth:`dump_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    # ------------------------------------------------------------------
    # abstract topology interface
    # ------------------------------------------------------------------

    @abstractmethod
    def neighbors(self, node_id: int) -> Iterable[int]:
        """Current undirected neighbours of *node_id*."""

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

    def assign_slots(
        self, pairs: Sequence[tuple[int, int]], targets: Sequence[int]
    ) -> None:
        """Apply :meth:`assign_slot` to each ``(source, slot)`` pair in order.

        ``pairs[i]`` is pointed at ``targets[i]``.  A pair that fails a
        check raises the error :meth:`assign_slot` would, with the pairs
        before it already applied.  Every assigned slot advances
        :meth:`mutation_epoch` by one (the epoch is written into
        checkpoints, so an override must keep this count).  This loop is
        the reference; the array backend overrides it with one pass.
        """
        for (source, slot_index), target in zip(pairs, targets):
            self.assign_slot(source, slot_index, target)

    @abstractmethod
    def clear_slot(self, source: int, slot_index: int) -> int | None:
        """Empty ``source``'s slot *slot_index*; returns the old target."""

    @abstractmethod
    def remove_node(self, node_id: int, death_time: float) -> list[tuple[int, int]]:
        """Kill *node_id*; returns the orphaned ``(source, slot)`` pairs."""

    @abstractmethod
    def snapshot(self, time: float) -> Snapshot:
        """Freeze the current topology into an immutable :class:`Snapshot`."""

    def csr_view(self, time: float) -> CSRView:
        """Export the current topology as a :class:`~repro.core.csr.CSRView`.

        The analysis-plane counterpart of :meth:`snapshot`: a compact CSR
        adjacency plus id/birth arrays that the vectorized analyses run
        on.  The generic implementation builds the arrays in one pass
        over :meth:`neighbors`; the array backend overrides it with a
        zero-copy export of its dense row arrays.  A view aliases live
        state — it is valid only until the next topology mutation.
        """
        return csr_view_from_adjacency(
            time=time,
            ids=self.alive_ids(),
            neighbors_fn=self.neighbors,
            birth_fn=self.birth_time,
        )

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
    # derived queries with generic implementations
    # ------------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge {u, v} currently exists."""
        return v in set(self.neighbors(u))

    def random_neighbor(
        self, node_id: int, rng: np.random.Generator
    ) -> int | None:
        """Uniformly random current neighbour, or None if isolated."""
        keys = list(self.neighbors(node_id))
        if not keys:
            return None
        return keys[int(rng.integers(0, len(keys)))]

    def youngest_alive(self) -> int:
        """The most recently born alive node (flooding's default source)."""
        alive = self.alive_ids()
        if not alive:
            raise ConfigurationError("network has no alive nodes")
        return max(alive, key=self.birth_time)

    def degree_vector(self) -> np.ndarray:
        """Undirected degrees aligned with :meth:`alive_ids` order."""
        return np.array([self.degree(u) for u in self.alive_ids()], dtype=np.int64)

    def boundary_of(self, nodes: Iterable[int]) -> set[int]:
        """``∂out(S)``: alive nodes outside *nodes* adjacent to it."""
        inside = set(nodes)
        boundary: set[int] = set()
        for u in inside:
            boundary.update(self.neighbors(u))
        return boundary - inside

    # ------------------------------------------------------------------
    # batched churn (generic per-node fallback; array backend vectorizes)
    # ------------------------------------------------------------------

    #: True when :func:`flood_discrete` should use the mask-based frontier.
    supports_vectorized_frontier: bool = False

    #: True when the backend implements ``place_slots_capped`` — the bulk
    #: accept/reject sampler the bounded-degree edge policies batch onto.
    supports_bulk_placement: bool = False

    def add_nodes(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        num_slots: int,
    ) -> None:
        """Register a batch of newborns with empty out-slots (no sampling).

        The generic implementation loops :meth:`add_node`; the array
        backend registers the whole batch in a few vectorized writes.
        The bounded policies' bulk ``handle_births`` builds on this.
        """
        times_list = self.birth_times_list(node_ids, times)
        for node_id, birth_time in zip(node_ids, times_list):
            self.add_node(node_id, birth_time=birth_time, num_slots=num_slots)

    def apply_birth_slots(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        targets: np.ndarray,
    ) -> None:
        """Apply a pure-birth batch with *pre-drawn* target ids.

        ``targets`` is a ``(len(node_ids), d)`` array of destination node
        ids (−1 = leave the slot empty); row ``k`` may reference earlier
        newborns of the same batch.  No randomness is consumed here —
        the caller drew the targets from a canonical plan, which is what
        makes every pure-birth batch bit-identical across backends.  The generic implementation loops
        :meth:`add_node`/:meth:`assign_slot`, so each newborn and each
        written slot advances :meth:`mutation_epoch` by one; the array
        backend scatters the batch in vectorized writes with the same
        count (the epoch is written into checkpoints).
        """
        targets = np.asarray(targets, dtype=np.int64)
        times_list = self.birth_times_list(node_ids, times)
        num_slots = targets.shape[1] if targets.ndim == 2 else 0
        for k, (node_id, birth_time) in enumerate(zip(node_ids, times_list)):
            self.add_node(node_id, birth_time=birth_time, num_slots=num_slots)
            for slot_index in range(num_slots):
                target = int(targets[k, slot_index])
                if target >= 0:
                    self.assign_slot(node_id, slot_index, target)

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

    # ------------------------------------------------------------------
    # fused streaming rounds (death → regeneration → birth per round)
    # ------------------------------------------------------------------

    #: True when the backend implements :meth:`apply_round_batch` — the
    #: fused streaming-round kernel behind ``fast_rounds``.
    supports_round_batch: bool = False

    def apply_round_batch(
        self,
        base: int,
        rounds: int,
        num_slots: int,
        start_time: float,
        plan,
        regenerate: bool,
    ) -> None:
        """Execute *rounds* fused streaming rounds in one pass.

        Precondition: the alive set is exactly the contiguous id range
        ``[base, base + n)`` (``n`` = ``plan.n``), every alive node has
        ``num_slots`` slots, and ids ``base + n .. base + n + rounds - 1``
        are already allocated.  Round ``k`` (1-based) at time
        ``start_time + k``: node ``base + k - 1`` dies, each orphaned
        slot re-targets via ``plan.take_regen`` when *regenerate* (else
        stays empty), then node ``base + n + k - 1`` is born with
        ``num_slots`` requests addressed by ``plan.birth_offsets[k-1]``
        (offset ``v`` = the ``v``-th oldest post-death survivor).

        After the window both backends leave the alive set in ascending
        id order, so subsequent per-event draws stay bit-identical across
        backends too.  See :mod:`repro.core.round_batch` for the draw
        law; implementations must consume the plan in the documented
        orphan order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no fused streaming-round kernel"
        )

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


# ----------------------------------------------------------------------
# backend selection
# ----------------------------------------------------------------------


def default_backend_name() -> str:
    """The process-wide default backend name.

    Resolution order: :func:`use_backend` override, then the
    ``REPRO_BACKEND`` environment variable, then ``"dict"``.
    """
    override = _override.get()
    if override is not None:
        return override
    name = os.environ.get(_ENV_VAR, "dict").strip() or "dict"
    return name


def _validate_name(name: str) -> str:
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown graph backend {name!r}; choose from {BACKEND_NAMES}"
        )
    return name


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Temporarily make *name* the default backend (no-op for ``None``)."""
    if name is None:
        yield
        return
    _validate_name(name)
    token = _override.set(name)
    try:
        yield
    finally:
        _override.reset(token)


def create_backend(backend: str | GraphBackend | None = None) -> GraphBackend:
    """Instantiate a topology backend.

    Args:
        backend: a backend *instance* (returned unchanged, allowing callers
            to inject a pre-built or custom backend), a name from
            :data:`BACKEND_NAMES`, or ``None`` for the process default
            (``REPRO_BACKEND`` environment variable, else ``"dict"``).
    """
    if isinstance(backend, GraphBackend):
        return backend
    name = _validate_name(
        default_backend_name() if backend is None else str(backend)
    )
    if name == "array":
        from repro.core.array_backend import ArraySlotBackend

        return ArraySlotBackend()
    from repro.core.graph import DictBackend

    return DictBackend()
