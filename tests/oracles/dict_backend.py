"""Dict-based reference topology backend, kept as an exact-parity oracle.

The library's original mutable dynamic-graph state.  ``repro`` ships one
backend, :class:`~repro.core.array_backend.ArraySlotBackend`; this
readable :class:`~repro.core.backend.GraphBackend` is the second,
independent implementation the parity suites check it against.  Tests
inject it with ``backend=DictBackend()`` (``create_backend`` returns an
instance unchanged).  Seeded churn — per-event, exact warm-up and fast
pure-birth batches — is bit-identical to the array backend; streaming
fused windows step the policy hooks here, the per-event rounds the
array kernel reproduces.  Like the array backend, it lists a node's
neighbours in ascending id wherever an order is exposed (a random
neighbour's draw), so consumers that spend RNG along a neighbour list
(set-frontier gossip and lossy flooding, token walks, the p2p overlay)
draw alike on both.  It has no vectorized frontier
(flood it through ``spread`` with a ``SetFrontier``, as
:func:`flood_discrete_reference` does) and no bulk capped placement
(bounded-degree policies run on it with ``bulk=False``).

It tracks, incrementally and in O(1) amortised per operation:

* the set of alive nodes (with O(1) uniform sampling, via
  :class:`~repro.util.sampling.IndexedSet`);
* per-node out-request slots (see :mod:`repro.core.node`);
* the reverse index ``in_refs`` mapping a node to the set of
  ``(source, slot_index)`` pairs currently pointing at it — this is what
  makes deaths O(degree): a dying node knows exactly which slots it orphans;
* the undirected adjacency with multiplicities, because two slots may
  connect the same pair (the d choices are independent, with replacement)
  and an undirected edge disappears only when its last supporting slot does;
* the distinct undirected edge count, maintained incrementally so
  :meth:`DictBackend.num_edges` is O(1) instead of re-summing all rows.

The state is policy-agnostic: birth/death/regeneration *decisions* live in
:mod:`repro.core.edge_policy`; this module only applies topology deltas and
maintains invariants (checkable via :meth:`DictBackend.check_invariants`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

import repro.models.base
from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import GraphBackend
from repro.core.csr import CSRView, csr_view_from_adjacency
from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot
from repro.errors import SimulationError
from repro.flooding.frontier import SetFrontier, initial_informed, spread
from repro.flooding.result import FloodingResult
from repro.util.sampling import IndexedSet


class DictBackend(GraphBackend):
    """Nodes + slot-based topology of a dynamic network at one instant."""

    def __init__(self) -> None:
        super().__init__()
        self.records: dict[int, NodeRecord] = {}
        self.in_refs: dict[int, set[tuple[int, int]]] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def neighbors(self, node_id: int) -> Iterable[int]:
        """Current undirected neighbours of *node_id*."""
        return self.adj.get(node_id, {}).keys()

    def degree(self, node_id: int) -> int:
        """Undirected degree (number of distinct neighbours)."""
        return len(self.adj.get(node_id, {}))

    def num_edges(self) -> int:
        """Number of distinct undirected edges (O(1), cached)."""
        return self._edge_count

    def record(self, node_id: int) -> NodeRecord:
        return self.records[node_id]

    def birth_time(self, node_id: int) -> float:
        return self.records[node_id].birth_time

    def out_slots_of(self, node_id: int) -> list[int | None]:
        # A copy, matching the array backend: the interface is read-only.
        return list(self.records[node_id].out_slots)

    def in_slot_count(self, node_id: int) -> int:
        return len(self.in_refs[node_id])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, {})

    def random_neighbor(
        self, node_id: int, rng: np.random.Generator
    ) -> int | None:
        """Uniformly random current neighbour, or None if isolated; the
        candidates are listed in ascending id, as on the array backend."""
        neighbors = self.adj.get(node_id)
        if not neighbors:
            return None
        keys = sorted(neighbors)
        return keys[int(rng.integers(0, len(keys)))]

    def degree_vector(self) -> np.ndarray:
        return np.array(
            [len(self.adj[u]) for u in self.alive_ids()], dtype=np.int64
        )

    def boundary_of(self, nodes: Iterable[int]) -> set[int]:
        """``∂out(S)``: alive nodes outside *nodes* adjacent to it."""
        inside = set(nodes)
        boundary: set[int] = set()
        for u in inside:
            boundary.update(self.neighbors(u))
        return boundary - inside

    # ------------------------------------------------------------------
    # topology mutation (used by edge policies and network drivers)
    # ------------------------------------------------------------------

    def add_node(self, node_id: int, birth_time: float, num_slots: int) -> NodeRecord:
        """Register a newborn with *num_slots* empty out-slots."""
        if node_id in self.records:
            raise SimulationError(f"node id {node_id} already exists")
        record = NodeRecord(
            node_id=node_id,
            birth_time=birth_time,
            out_slots=[None] * num_slots,
        )
        self.records[node_id] = record
        self.alive.add(node_id)
        self.in_refs[node_id] = set()
        self.adj[node_id] = {}
        self._note_mutation((node_id,))
        return record

    def assign_slot(self, source: int, slot_index: int, target: int) -> None:
        """Point ``source``'s slot *slot_index* at *target* (must be empty)."""
        record = self.records[source]
        if record.out_slots[slot_index] is not None:
            raise SimulationError(
                f"slot {slot_index} of node {source} is already assigned"
            )
        if target == source:
            raise SimulationError(f"self-loop requested by node {source}")
        if target not in self.alive:
            raise SimulationError(f"slot target {target} is not alive")
        record.out_slots[slot_index] = target
        self.in_refs[target].add((source, slot_index))
        self._adj_increment(source, target)
        self._note_mutation((source, target))

    def assign_slots(
        self, pairs: Sequence[tuple[int, int]], targets: Sequence[int]
    ) -> None:
        """:meth:`assign_slot` for each ``(source, slot)`` pair in order."""
        for (source, slot_index), target in zip(pairs, targets):
            self.assign_slot(source, slot_index, target)

    def add_nodes(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        num_slots: int,
    ) -> None:
        """Register a batch of newborns with empty out-slots (no sampling)."""
        times_list = self.birth_times_list(node_ids, times)
        for node_id, birth_time in zip(node_ids, times_list):
            self.add_node(node_id, birth_time=birth_time, num_slots=num_slots)

    def apply_birth_slots(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        targets: np.ndarray,
    ) -> None:
        """A pure-birth batch with pre-drawn target ids (−1 = empty slot),
        as an :meth:`add_node`/:meth:`assign_slot` loop."""
        targets = np.asarray(targets, dtype=np.int64)
        times_list = self.birth_times_list(node_ids, times)
        num_slots = targets.shape[1] if targets.ndim == 2 else 0
        for k, (node_id, birth_time) in enumerate(zip(node_ids, times_list)):
            self.add_node(node_id, birth_time=birth_time, num_slots=num_slots)
            for slot_index in range(num_slots):
                target = int(targets[k, slot_index])
                if target >= 0:
                    self.assign_slot(node_id, slot_index, target)

    def clear_slot(self, source: int, slot_index: int) -> int | None:
        """Empty ``source``'s slot *slot_index*; returns the old target."""
        record = self.records[source]
        target = record.out_slots[slot_index]
        if target is None:
            return None
        record.out_slots[slot_index] = None
        refs = self.in_refs.get(target)
        if refs is not None:
            refs.discard((source, slot_index))
        self._adj_decrement(source, target)
        self._note_mutation((source, target))
        return target

    def remove_node(self, node_id: int, death_time: float) -> list[tuple[int, int]]:
        """Kill *node_id*: drop all incident edges.

        Returns the list of *orphaned slots* — ``(source, slot_index)``
        pairs of other alive nodes whose request pointed at the dead node.
        The caller's edge policy decides what happens to them (clear vs
        regenerate).  The dead node's own out-slots are cleared here.
        """
        if node_id not in self.alive:
            raise SimulationError(f"cannot remove node {node_id}: not alive")
        record = self.records[node_id]
        record.death_time = death_time
        self.alive.discard(node_id)
        touched = [node_id]

        # Drop the dying node's own requests.
        for slot_index, target in enumerate(record.out_slots):
            if target is not None:
                record.out_slots[slot_index] = None
                refs = self.in_refs.get(target)
                if refs is not None:
                    refs.discard((node_id, slot_index))
                self._adj_decrement(node_id, target)
                touched.append(target)

        # Orphan the requests of others pointing here; clear them from the
        # topology — the policy may immediately re-assign them.
        orphaned = sorted(self.in_refs.pop(node_id, set()))
        for source, slot_index in orphaned:
            self.records[source].out_slots[slot_index] = None
            self._adj_decrement(source, node_id)
            touched.append(source)

        leftovers = self.adj.pop(node_id, {})
        if leftovers:
            raise SimulationError(
                f"node {node_id} died with dangling adjacency: {leftovers}"
            )
        self._note_mutation(touched)
        return orphaned

    # ------------------------------------------------------------------
    # state serialization (service plane)
    # ------------------------------------------------------------------

    def dump_state(self) -> dict:
        """Serialize the full mutable state to a JSON-able dict.

        Adjacency is emitted as pair-lists: plain JSON objects would
        stringify the int keys.  Dead-node records are dropped:
        nothing on a seeded trajectory reads them after the fact.
        """
        nodes = [
            [
                int(u),
                float(self.records[u].birth_time),
                [None if t is None else int(t) for t in self.records[u].out_slots],
            ]
            for u in self.adj
        ]
        adjacency = [
            [int(u), [[int(v), int(m)] for v, m in row.items()]]
            for u, row in self.adj.items()
        ]
        return {
            "kind": "dict",
            "next_id": self._next_id,
            "mutation_epoch": self._mutation_epoch,
            "alive": [int(u) for u in self.alive],
            "nodes": nodes,
            "adjacency": adjacency,
        }

    def restore_state(self, payload: dict) -> None:
        """Restore state previously produced by :meth:`dump_state`."""
        self.records = {}
        self.in_refs = {}
        self.adj = {}
        for u, birth_time, out_slots in payload["nodes"]:
            self.records[u] = NodeRecord(
                node_id=u,
                birth_time=birth_time,
                out_slots=list(out_slots),
            )
            self.in_refs[u] = set()
        for u, row in payload["adjacency"]:
            self.adj[u] = {v: m for v, m in row}
        for u in self.adj:
            for slot_index, target in enumerate(self.records[u].out_slots):
                if target is not None:
                    self.in_refs[target].add((u, slot_index))
        self._edge_count = sum(len(row) for row in self.adj.values()) // 2
        self.alive = IndexedSet(payload["alive"])
        self._next_id = int(payload["next_id"])
        self._mutation_epoch = int(payload["mutation_epoch"])
        self._touched = None

    # ------------------------------------------------------------------
    # snapshot / verification
    # ------------------------------------------------------------------

    def snapshot(self, time: float) -> Snapshot:
        """Freeze the current topology into an immutable :class:`Snapshot`."""
        nodes = self.alive.as_list()
        adjacency = {u: frozenset(self.adj[u].keys()) for u in nodes}
        birth_times = {u: self.records[u].birth_time for u in nodes}
        out_slots = {u: tuple(self.records[u].out_slots) for u in nodes}
        return Snapshot(
            time=time,
            nodes=frozenset(nodes),
            adjacency=adjacency,
            birth_times=birth_times,
            out_slots=out_slots,
        )

    def csr_view(self, time: float) -> CSRView:
        """The current topology as a :class:`CSRView`, built in one pass."""
        return csr_view_from_adjacency(
            time=time,
            ids=self.alive_ids(),
            neighbors_of=self.adj,
            birth_fn=self.birth_time,
        )

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if internal indices disagree.

        Checked invariants:
          * adjacency is symmetric with matching multiplicities;
          * every assigned slot points at an alive node and is registered
            in the target's ``in_refs``;
          * every ``in_refs`` entry corresponds to a real slot assignment;
          * adjacency multiplicity equals the number of supporting slots;
          * the cached undirected edge count matches a full recount.
        """
        multiplicity: dict[tuple[int, int], int] = {}
        for node_id in self.alive:
            record = self.records[node_id]
            for slot_index, target in enumerate(record.out_slots):
                if target is None:
                    continue
                if target not in self.alive:
                    raise SimulationError(
                        f"slot ({node_id},{slot_index}) points at dead node {target}"
                    )
                if (node_id, slot_index) not in self.in_refs[target]:
                    raise SimulationError(
                        f"slot ({node_id},{slot_index})->{target} missing from in_refs"
                    )
                key = (min(node_id, target), max(node_id, target))
                multiplicity[key] = multiplicity.get(key, 0) + 1
        for target, refs in self.in_refs.items():
            for source, slot_index in refs:
                if self.records[source].out_slots[slot_index] != target:
                    raise SimulationError(
                        f"stale in_ref ({source},{slot_index}) -> {target}"
                    )
        seen: dict[tuple[int, int], int] = {}
        for u, nbrs in self.adj.items():
            for v, count in nbrs.items():
                if self.adj.get(v, {}).get(u) != count:
                    raise SimulationError(f"asymmetric adjacency {u}-{v}")
                seen[(min(u, v), max(u, v))] = count
        if seen != multiplicity:
            raise SimulationError(
                "adjacency multiplicities disagree with slot assignments"
            )
        recount = sum(len(nbrs) for nbrs in self.adj.values()) // 2
        if recount != self._edge_count:
            raise SimulationError(
                f"cached edge count {self._edge_count} != recount {recount}"
            )

    # ------------------------------------------------------------------
    # internal adjacency maintenance
    # ------------------------------------------------------------------

    def _adj_increment(self, u: int, v: int) -> None:
        if v not in self.adj[u]:
            self._edge_count += 1
        self.adj[u][v] = self.adj[u].get(v, 0) + 1
        self.adj[v][u] = self.adj[v].get(u, 0) + 1

    def _adj_decrement(self, u: int, v: int) -> None:
        for a, b in ((u, v), (v, u)):
            row = self.adj.get(a)
            if row is None or b not in row:
                raise SimulationError(f"decrementing missing edge {a}-{b}")
            row[b] -= 1
            if row[b] == 0:
                del row[b]
                if a == u:
                    self._edge_count -= 1


def flood_discrete_reference(
    network,
    source: int | None = None,
    max_rounds: int = 10_000,
    stop_when_extinct: bool = True,
    sources: Iterable[int] | None = None,
) -> FloodingResult:
    """:func:`~repro.flooding.discrete.flood_discrete` on a ``SetFrontier``.

    The library floods through the array backend's ``MaskFrontier``; this
    is the same Definition 3.3 run on the set-of-ids reference frontier,
    which needs only the :class:`GraphBackend` queries — so it floods a
    network built on :class:`DictBackend` too.  Same result, round for
    round, as ``flood_discrete`` on an identical array network.
    """
    source, informed = initial_informed(network, source, sources)
    frontier = SetFrontier(network.state, informed)
    lone = network.state.num_alive() == 1
    result = spread(
        network,
        frontier,
        frontier.boundary,
        source,
        0 if lone else max_rounds,
        stop_when_extinct,
    )
    if lone:
        result.completed = True
        result.completion_round = 0
    return result


#: The backends a parity test runs on, by test id: the oracle and the
#: library's.
BACKENDS: dict[str, type[GraphBackend]] = {
    "dict": DictBackend,
    "array": ArraySlotBackend,
}


def build_drivers_on_oracle(monkeypatch) -> None:
    """Make every driver built from here on run on a fresh :class:`DictBackend`.

    Drivers built from a ``ScenarioSpec`` (sessions, experiments) always
    get the array backend; this patches the drivers' backend factory
    (``pytest``'s *monkeypatch* undoes it after the test).  An instance
    passed as ``backend=`` still wins.
    """
    monkeypatch.setattr(
        repro.models.base,
        "create_backend",
        lambda backend=None: backend
        if isinstance(backend, GraphBackend)
        else DictBackend(),
    )
