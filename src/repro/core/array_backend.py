"""Dense array-backed topology backend.

:class:`ArraySlotBackend` stores the out-request slots of all nodes in one
``(capacity, d)`` NumPy array of *row* indices (-1 = empty slot), with:

* **free-list row recycling** — dead nodes return their row to a free
  list, so memory stays O(alive nodes) even though ids grow forever;
* **alive-mask bookkeeping** — a boolean row mask plus the
  :class:`~repro.util.sampling.IndexedSet` alive set every
  :class:`~repro.core.backend.GraphBackend` keeps, so uniform sampling
  consumes the RNG exactly like the dict reference backend of the test
  oracles (seeded churn trajectories are bit-identical to it);
* **a lazily rebuilt CSR adjacency** — distinct-neighbour queries
  (snapshots, degree vectors, edge counts) rebuild a CSR structure at
  most once per topology version, entirely in vectorized NumPy, with
  int32 ``indptr``/``indices`` while the row capacity and the directed
  entry count fit (:func:`~repro.core.csr.csr_index_dtype`);
* **batched births** — :meth:`apply_birth_slots` writes thousands of
  pre-drawn births in a handful of array operations;
* **a lazy reverse index** — ``_in_refs`` maps a row to the set of
  ``(source id, slot)`` pairs pointing at it.  It is a cache that only
  readers build (:meth:`neighbors`, :meth:`remove_node`,
  :meth:`check_invariants`): the first takes one sorted snapshot of the
  slot matrix and each row's set is built from it when first touched.
  Writers edit it only while it exists, and batch writes
  (whole-population births, fused windows, checkpoint restore) drop it.
  The exact and fused kernels do not need it (the exact kernel reads
  it when it exists).
  No output depends on a set's iteration order: every consumer that
  exposes a neighbour order sorts ascending;
* **a dense in-degree counter** — ``_in_count`` holds each row's
  in-slot count as an ``int32`` array, valid at all times (batch writes
  recompute it with one bincount), so capacity checks in the
  bounded-degree policies (and the bulk accept/reject sampler
  :meth:`place_slots_capped`) never touch the per-row Python sets.

The slot matrix stores row indices rather than node ids so that every
vectorized pass (frontier expansion, CSR rebuild) indexes arrays directly.
An assigned slot always points at an alive row: when a node dies all slots
pointing at it are cleared (they are the returned orphans), so no stale
row reference can survive recycling.

This is the library's only topology backend; the readable dict-of-dicts
reference it is checked against lives in ``tests/oracles/dict_backend.py``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

import numpy as np

from repro.core.backend import GraphBackend
from repro.core.csr import CSRView, csr_index_dtype
from repro.core.in_slots import ReverseIndex, grouped, scan_in_slot_keys
from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot
from repro.errors import ConfigurationError, SimulationError
from repro.util.sampling import IndexedSet, RawWordDraws

#: Words an exact or fused round is expected to take, in units of ``d``,
#: slightly over: ``d`` births and up to ``2d`` orphans (steady-state SDGR
#: windows took 2.7d words a round at n = 300 to 1e4, as the dying oldest
#: node has gathered regenerated slots).
_ROUND_WORDS = 3

#: Deaths a slot-matrix pass lists keys for, at least: a short window's
#: pass also serves the windows after it.
_LIST_AHEAD = 32


class ArraySlotBackend(GraphBackend):
    """Vectorized slot store with free-list node recycling."""

    def __init__(
        self,
        initial_capacity: int = 1024,
        slot_width: int = 4,
    ) -> None:
        super().__init__()
        self._cap = max(int(initial_capacity), 1)
        self._width = max(int(slot_width), 1)
        self._slots = np.full((self._cap, self._width), -1, dtype=np.int64)
        self._num_slots = np.zeros(self._cap, dtype=np.int32)
        self._birth = np.zeros(self._cap, dtype=np.float64)
        self._id_of = np.full(self._cap, -1, dtype=np.int64)
        self._alive_rows = np.zeros(self._cap, dtype=bool)
        # The reverse index, a cache: None until a reader needs it, and
        # again after a batch write drops it.  _ensure_in_refs() snapshots
        # the slot matrix and rows build lazily; writers edit it only
        # while it exists.  _in_count stays valid at all times.
        self._in_refs: ReverseIndex | None = None
        # The in-slot keys an exact window listed for nodes that outlive
        # it (see _in_slot_keys).
        self._kept_keys: tuple[int, int, list[list[int]]] | None = None
        self._in_count = np.zeros(self._cap, dtype=np.int32)
        self._row_of: dict[int, int] = {}
        self._free: list[int] = []
        self._high = 0  # rows [0, _high) have been used at least once
        self._csr_epoch = -1
        self._csr_indptr: np.ndarray | None = None
        self._csr_indices: np.ndarray | None = None
        self._csr_edge_count = 0

    # ------------------------------------------------------------------
    # row bookkeeping
    # ------------------------------------------------------------------

    def row_capacity(self) -> int:
        """Current length of the row arrays (masks must match this)."""
        return self._cap

    def row_for(self, node_id: int) -> int:
        """Array row of an alive node."""
        return self._row_of[node_id]

    def row_if_alive(self, node_id: int) -> int | None:
        """Array row of *node_id*, or None when it is not alive."""
        return self._row_of.get(node_id)

    def rows_for(self, node_ids: Iterable[int]) -> np.ndarray:
        """Array rows of the *alive* subset of *node_ids* (order preserved).

        Dead ids are skipped rather than raising: callers like
        :class:`~repro.flooding.frontier.MaskFrontier` seed informed sets
        whose members may already have died (the set-based reference
        silently tolerates dead sources — they simply drop at absorb), so
        the row translation must tolerate them too.
        """
        row_of = self._row_of
        return np.fromiter(
            (row for row in (row_of.get(u) for u in node_ids) if row is not None),
            dtype=np.int64,
        )

    def ids_for_rows(self, rows: np.ndarray) -> np.ndarray:
        """Node ids occupying *rows*."""
        return self._id_of[rows]

    def alive_row_mask(self) -> np.ndarray:
        """Boolean mask over rows of currently-alive nodes (read-only view)."""
        return self._alive_rows

    def _take_row(self) -> int:
        if self._free:
            return self._free.pop()
        if self._high == self._cap:
            self._grow_rows(self._cap * 2)
        row = self._high
        self._high += 1
        return row

    def _grow_rows(self, new_cap: int) -> None:
        old_cap = self._cap
        self._cap = new_cap
        grown = np.full((new_cap, self._width), -1, dtype=np.int64)
        grown[:old_cap] = self._slots
        self._slots = grown
        num_slots_grown = np.zeros(new_cap, dtype=np.int32)
        num_slots_grown[:old_cap] = self._num_slots
        self._num_slots = num_slots_grown
        birth_grown = np.zeros(new_cap, dtype=np.float64)
        birth_grown[:old_cap] = self._birth
        self._birth = birth_grown
        id_grown = np.full(new_cap, -1, dtype=np.int64)
        id_grown[:old_cap] = self._id_of
        self._id_of = id_grown
        alive_grown = np.zeros(new_cap, dtype=bool)
        alive_grown[:old_cap] = self._alive_rows
        self._alive_rows = alive_grown
        in_count_grown = np.zeros(new_cap, dtype=np.int32)
        in_count_grown[:old_cap] = self._in_count
        self._in_count = in_count_grown

    def _grow_cols(self, new_width: int) -> None:
        extra = np.full((self._cap, new_width - self._width), -1, dtype=np.int64)
        self._slots = np.hstack([self._slots, extra])
        self._width = new_width
        self._kept_keys = None  # keys encode the width

    def _ensure_in_refs(self) -> ReverseIndex:
        """The reverse index, snapshotted from the slot matrix if there is
        none (rows build on first touch).  Only readers call it:
        :meth:`neighbors`, :meth:`remove_node` and
        :meth:`check_invariants`.  Writers edit the index only while it
        exists."""
        if self._in_refs is None:
            self._in_refs = ReverseIndex(self._slots, self._id_of)
        return self._in_refs

    def _in_slot_keys(self, first: int, last: int) -> list[list[int]]:
        """The in-slots of nodes ``first … last`` and the next ones, up to
        :data:`_LIST_AHEAD` in all, as unsorted keys ``source id · width
        + slot`` (an empty list for a node not alive; keys of sources
        that died since may remain), or no lists when the reverse index
        exists.

        The lists come from the previous exact window when it listed
        these nodes and nothing has mutated since (the epoch is
        unchanged), else from one pass over the slot matrix.
        """
        kept, self._kept_keys = self._kept_keys, None
        if last < first or self._in_refs is not None:
            return []
        if kept and kept[:2] == (self._mutation_epoch, first):
            if len(kept[2]) > last - first:
                return kept[2]
        ids = range(first, max(last + 1, first + _LIST_AHEAD))
        rows = list(map(self._row_of.get, ids))
        if rows.count(None) == len(rows):
            return [[] for _ in rows]
        return scan_in_slot_keys(self._slots[: self._high], self._id_of, rows)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def neighbors(self, node_id: int) -> set[int]:
        """Current undirected neighbours of *node_id* (distinct ids)."""
        in_refs = self._ensure_in_refs()
        row = self._row_of[node_id]
        id_of = self._id_of
        out = self._slots[row, : self._num_slots.item(row)].tolist()
        result = {id_of.item(t) for t in out if t >= 0}
        result.update(source for source, _ in in_refs[row])
        return result

    def degree(self, node_id: int) -> int:
        return len(self.neighbors(node_id))

    def has_edge(self, u: int, v: int) -> bool:
        urow = self._row_of.get(u)
        vrow = self._row_of.get(v)
        if urow is None or vrow is None:
            return False
        if np.any(self._slots[urow, : self._num_slots[urow]] == vrow):
            return True
        return bool(np.any(self._slots[vrow, : self._num_slots[vrow]] == urow))

    def random_neighbor(
        self, node_id: int, rng: np.random.Generator
    ) -> int | None:
        keys = sorted(self.neighbors(node_id))
        if not keys:
            return None
        return keys[int(rng.integers(0, len(keys)))]

    def num_edges(self) -> int:
        """Number of distinct undirected edges (from the lazy CSR)."""
        self._ensure_csr()
        return self._csr_edge_count

    def record(self, node_id: int) -> NodeRecord:
        """Synthesized record of an *alive* node (dead rows are recycled)."""
        row = self._row_of.get(node_id)
        if row is None:
            raise SimulationError(
                f"node {node_id} is not alive (array backend recycles dead rows)"
            )
        return NodeRecord(
            node_id=node_id,
            birth_time=float(self._birth[row]),
            out_slots=self.out_slots_of(node_id),
        )

    def birth_time(self, node_id: int) -> float:
        return float(self._birth[self._row_of[node_id]])

    def youngest_alive(self) -> int:
        """The most recently born alive node, from one pass over the
        alive rows' birth times.  Among equal birth times it returns the
        first in alive order, as ``max`` over :meth:`alive_ids` does."""
        if not len(self.alive):
            raise ConfigurationError("network has no alive nodes")
        rows = np.flatnonzero(self._alive_rows)
        times = self._birth[rows]
        latest = self._id_of[rows[times == times.max()]].tolist()
        if len(latest) == 1:
            return latest[0]
        return min(latest, key=self.alive.index)

    def out_slots_of(self, node_id: int) -> list[int | None]:
        row = self._row_of[node_id]
        return [
            int(self._id_of[t]) if t >= 0 else None
            for t in self._slots[row, : self._num_slots[row]]
        ]

    def in_slot_count(self, node_id: int) -> int:
        return int(self._in_count[self._row_of[node_id]])

    # ------------------------------------------------------------------
    # topology mutation
    # ------------------------------------------------------------------

    def add_node(self, node_id: int, birth_time: float, num_slots: int) -> NodeRecord:
        row_of = self._row_of
        if node_id in row_of:
            raise SimulationError(f"node id {node_id} already exists")
        if num_slots > self._width:
            self._grow_cols(num_slots)
        row = self._take_row()
        self._slots[row] = -1
        self._num_slots[row] = num_slots
        self._birth[row] = birth_time
        self._id_of[row] = node_id
        self._alive_rows[row] = True
        self._in_count[row] = 0
        row_of[node_id] = row
        self.alive.add(node_id)
        self._note_mutation((node_id,))
        return NodeRecord(
            node_id=node_id, birth_time=birth_time, out_slots=[None] * num_slots
        )

    def assign_slot(self, source: int, slot_index: int, target: int) -> None:
        self.assign_slots(((source, slot_index),), (target,))

    def assign_slots(
        self, pairs: Sequence[tuple[int, int]], targets: Sequence[int]
    ) -> None:
        """Point each ``(source, slot)`` pair at its target in one pass.

        The only checked slot write of this backend (:meth:`assign_slot`
        is a one-pair call).  Every assigned slot advances
        :meth:`mutation_epoch` by one (the epoch is written into
        checkpoints), and a failing pair raises with the pairs before it
        applied and counted, like a per-pair loop.  Scalars are
        read with ``.item()`` through local aliases, and the touched ids
        are collected only while :meth:`track_mutations` is on.
        """
        in_refs = self._in_refs
        row_of = self._row_of
        slots = self._slots
        num_slots = self._num_slots
        in_count = self._in_count
        touched: list[int] | None = [] if self._touched is not None else None
        applied = 0
        try:
            for (source, slot_index), target in zip(pairs, targets):
                srow = row_of[source]
                if not 0 <= slot_index < num_slots.item(srow):
                    # An IndexError, as a list of slots would raise;
                    # without this the write would land in a padding
                    # column, visible to the CSR but not to neighbors()
                    # or out_slots_of().
                    raise IndexError(
                        f"slot index {slot_index} out of range for node {source}"
                    )
                if slots.item(srow, slot_index) >= 0:
                    raise SimulationError(
                        f"slot {slot_index} of node {source} is already assigned"
                    )
                if target == source:
                    raise SimulationError(f"self-loop requested by node {source}")
                trow = row_of.get(target)
                if trow is None:
                    raise SimulationError(f"slot target {target} is not alive")
                slots[srow, slot_index] = trow
                if in_refs is not None:
                    in_refs[trow].add((source, slot_index))
                in_count[trow] = in_count.item(trow) + 1
                applied += 1
                if touched is not None:
                    touched.append(source)
                    touched.append(target)
        finally:
            if applied:
                self._note_mutation(touched or (), applied)

    def clear_slot(self, source: int, slot_index: int) -> int | None:
        srow = self._row_of[source]
        if not 0 <= slot_index < self._num_slots.item(srow):
            raise IndexError(
                f"slot index {slot_index} out of range for node {source}"
            )
        slots = self._slots
        trow = slots.item(srow, slot_index)
        if trow < 0:
            return None
        slots[srow, slot_index] = -1
        if self._in_refs is not None:
            self._in_refs[trow].discard((source, slot_index))
        in_count = self._in_count
        in_count[trow] = in_count.item(trow) - 1
        target = self._id_of.item(trow)
        self._note_mutation((source, target))
        return target

    def remove_node(self, node_id: int, death_time: float) -> list[tuple[int, int]]:
        """Kill *node_id*; its row returns to the free list for recycling."""
        del death_time  # recycled rows keep no tombstone
        in_refs = self._ensure_in_refs()
        if node_id not in self.alive:
            raise SimulationError(f"cannot remove node {node_id}: not alive")
        row_of = self._row_of
        slots = self._slots
        in_count = self._in_count
        id_of = self._id_of
        row = row_of.pop(node_id)
        self.alive.discard(node_id)
        self._alive_rows[row] = False
        touched: list[int] | None = [node_id] if self._touched is not None else None

        # Drop the dying node's own requests.
        out = slots[row, : self._num_slots.item(row)].tolist()
        for slot_index, trow in enumerate(out):
            if trow >= 0:
                in_refs[trow].discard((node_id, slot_index))
                in_count[trow] = in_count.item(trow) - 1
                if touched is not None:
                    touched.append(id_of.item(trow))
        slots[row] = -1

        # Orphan the requests of others pointing here, in ascending
        # (source, slot) order: the order regeneration repairs them in.
        orphaned = sorted(in_refs[row])
        for source, slot_index in orphaned:
            slots[row_of[source], slot_index] = -1
        if touched is not None:
            touched.extend(source for source, _ in orphaned)
        in_refs[row] = set()
        in_count[row] = 0

        id_of[row] = -1
        self._num_slots[row] = 0
        self._birth[row] = 0.0
        self._free.append(row)
        self._note_mutation(touched or ())
        return orphaned

    # ------------------------------------------------------------------
    # batched churn
    # ------------------------------------------------------------------

    def add_nodes(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        num_slots: int,
    ) -> np.ndarray:
        """Register a batch of newborns in a few vectorized writes.

        Advances the epoch by one per newborn, like the :meth:`add_node`
        loop.  Returns the assigned rows in batch order (the bounded
        policies' bulk births pass them on to :meth:`place_slots_capped`).
        """
        rows = self._register_rows(node_ids, times, num_slots)
        if rows.size:
            self._note_mutation(
                self._id_of[rows].tolist() if self._touched is not None else (),
                rows.size,
            )
        return rows

    def _register_rows(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        num_slots: int,
    ) -> np.ndarray:
        """:meth:`add_nodes` without the epoch bump (callers count it)."""
        count = len(node_ids)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if len(set(node_ids)) != count:
            raise SimulationError("duplicate node ids in birth batch")
        clash = next((i for i in node_ids if i in self._row_of), None)
        if clash is not None:
            raise SimulationError(f"node id {clash} already exists")
        times_list = self.birth_times_list(node_ids, times)
        if num_slots > self._width:
            self._grow_cols(num_slots)

        # Bulk row allocation: recycled rows first, then a contiguous
        # fresh range (free rows are fully cleared by remove_node, so
        # their slot columns and reverse-ref sets need no re-init).
        recycled = self._free[max(len(self._free) - count, 0):]
        del self._free[max(len(self._free) - count, 0):]
        fresh = count - len(recycled)
        while self._high + fresh > self._cap:
            self._grow_rows(self._cap * 2)
        rows = np.empty(count, dtype=np.int64)
        rows[: len(recycled)] = recycled
        rows[len(recycled):] = np.arange(
            self._high, self._high + fresh, dtype=np.int64
        )
        self._high += fresh

        ids = np.asarray(node_ids, dtype=np.int64)
        self._slots[rows, :] = -1
        self._num_slots[rows] = num_slots
        self._birth[rows] = np.asarray(times_list, dtype=np.float64)
        self._id_of[rows] = ids
        self._alive_rows[rows] = True
        self._in_count[rows] = 0
        self._row_of.update(zip(ids.tolist(), rows.tolist()))
        self.alive.extend_unique(node_ids)
        return rows

    def apply_birth_slots(
        self,
        node_ids: Sequence[int],
        times: Sequence[float] | float,
        targets: np.ndarray,
    ) -> None:
        """Vectorized pure-birth batch with pre-drawn target ids.

        Leaves the state a loop of :meth:`add_node` + :meth:`assign_slots`
        over the batch leaves, epoch included (one per newborn plus one
        per written slot); rows may reference earlier newborns of the
        same batch.  Targets among the newborns resolve to rows through
        one sorted map of the batch's ids, older targets through the id
        map.  When the batch is the whole population, the reverse index
        is dropped (a reader's :meth:`_ensure_in_refs` snapshots the
        same sets); otherwise it is edited if it exists.  No RNG is
        consumed.
        """
        count = len(node_ids)
        if count == 0:
            return
        targets = np.asarray(targets, dtype=np.int64)
        num_slots = targets.shape[1] if targets.ndim == 2 else 0
        flat = targets.reshape(-1) if num_slots else np.empty(0, np.int64)
        valid = flat >= 0
        ids = np.asarray(node_ids, dtype=np.int64)
        src_ids = np.repeat(ids, num_slots)[valid]
        tgt = flat[valid]
        if np.any(tgt == src_ids):
            raise SimulationError("self-loop in pre-drawn birth targets")
        whole = self.num_alive() == 0
        rows = self._register_rows(node_ids, times, num_slots)
        order = np.argsort(ids, kind="stable")
        pos = np.minimum(np.searchsorted(ids[order], tgt), count - 1)
        trows = rows[order[pos]]
        older = np.flatnonzero(ids[order[pos]] != tgt)
        if older.size:
            row_of = self._row_of
            try:
                trows[older] = [row_of[t] for t in tgt[older].tolist()]
            except KeyError as exc:
                raise SimulationError(
                    f"pre-drawn birth target {exc.args[0]} is not alive"
                ) from exc
        src_rows = np.repeat(rows, num_slots)[valid]
        src_cols = np.tile(np.arange(num_slots), count)[valid]
        self._slots[src_rows, src_cols] = trows
        self._in_count += np.bincount(trows, minlength=self._cap).astype(
            np.int32
        )
        in_refs = self._in_refs
        if whole:
            self._in_refs = None
        elif in_refs is not None:
            for source, col, trow in zip(
                src_ids.tolist(), src_cols.tolist(), trows.tolist()
            ):
                in_refs[trow].add((source, col))
        touched = (
            ids.tolist() + self._id_of[trows].tolist()
            if self._touched is not None
            else ()
        )
        self._note_mutation(touched, count + tgt.size)

    # ------------------------------------------------------------------
    # fused streaming rounds (the exact rounds on a local slot matrix)
    # ------------------------------------------------------------------

    def apply_fused_rounds(
        self,
        first_round: int,
        rounds: int,
        n: int,
        d: int,
        regenerate: bool,
        rng: np.random.Generator,
    ) -> None:
        """Run steady-state streaming rounds ``first_round … first_round +
        rounds − 1`` as :meth:`apply_exact_rounds` does, without records.

        The draws are the exact kernel's, in the same order and encoding,
        so slots, rows, in-counts, alive order, epoch and generator state
        end as it (and the policy hooks) leave them, for any partition
        into windows.  The reverse index is dropped; the next reader
        snapshots it again with the same sets.  Touched ids are
        a superset: every id the window covers.

        Precondition: every round has a death (``first_round > n``), the
        alive set is the id range ``[first_round − n − 1, first_round −
        1)``, each node with *d* slots, and ``first_round − 1`` is the
        next id.

        The window works on local ids (``local = id − base``, base the
        first node to die): the out-slots of all ``n + rounds`` of them
        form one ``(n + rounds, d)`` matrix of locals.  A death pushes its
        row on the free list and the same round's birth pops it, so local
        ``l`` sits in row ``rows0[l % n]`` and the write-back touches only
        the survivors' rows, with no relabelling.  With regeneration the
        rounds run as a Python loop (:meth:`_fused_regen_rounds`); without
        it every draw is a birth and the alive order follows the schedule
        alone, so the window is vectorised (:meth:`_fused_birth_rounds`).
        """
        W = int(rounds)
        if W < 1:
            return
        base = first_round - n - 1
        if base < 0 or n < 2:
            raise SimulationError(
                f"fused rounds need a death every round; round {first_round} "
                f"of a network of {n} has none"
            )
        if self.num_alive() != n:
            raise SimulationError(
                f"fused window needs exactly {n} alive nodes, "
                f"found {self.num_alive()}"
            )
        row_of = self._row_of
        try:
            rows0 = np.fromiter(
                map(row_of.__getitem__, range(base, base + n)),
                dtype=np.int64,
                count=n,
            )
        except KeyError as exc:
            raise SimulationError(
                f"fused window needs the contiguous alive range "
                f"[{base}, {base + n}); {exc.args[0]} is missing"
            ) from exc
        if not np.all(self._num_slots[rows0] == d):
            raise SimulationError(
                "fused window needs a uniform out-degree across alive nodes"
            )
        if self._next_id != first_round - 1:
            raise SimulationError(
                f"id drift: next id {self._next_id}, schedule expects "
                f"{first_round - 1}"
            )

        out = np.full((n + W, d), -1, dtype=np.int64)
        current = self._slots[rows0, :d]
        valid = current >= 0
        out[:n][valid] = self._id_of[current[valid]] - base
        regenerated = 0
        with RawWordDraws(rng) as source:
            # Like the exact kernel: with n = 2 no third node can take an
            # orphan, so orphans stay empty and nothing is drawn for them.
            if regenerate and n >= 3:
                regenerated = self._fused_regen_rounds(out, base, n, W, d, source)
            else:
                self._fused_birth_rounds(out, base, n, W, d, source)

        # ---- write-back: the survivors are locals W … W + n − 1 ----
        surv = out[W:]
        surv[surv < W] = -1  # targets that died in the window
        trows = np.where(surv >= 0, rows0[surv % n], -1)
        self._slots[rows0[np.arange(W, W + n) % n], :d] = trows
        born = np.arange(W + n - min(W, n), W + n)  # the newborns alive
        born_rows = rows0[born % n]
        self._id_of[born_rows] = born + base
        self._birth[born_rows] = (born + (first_round - n)).astype(np.float64)
        self._in_count[rows0] = np.bincount(
            trows[trows >= 0], minlength=self._cap
        )[rows0]
        born_ids = (born + base).tolist()
        if W >= n:
            self._row_of = dict(zip(born_ids, born_rows.tolist()))
        else:
            for dead in range(base, base + W):
                del row_of[dead]
            row_of.update(zip(born_ids, born_rows.tolist()))
        self._next_id += W
        self._in_refs = None
        # Count like the exact kernel: one per death, newborn, birth
        # slot and regenerated slot.
        self._note_mutation(
            range(base, base + n + W) if self._touched is not None else (),
            count=W * (2 + d) + regenerated,
        )

    def _fused_regen_rounds(
        self,
        out: np.ndarray,
        base: int,
        n: int,
        W: int,
        d: int,
        source: RawWordDraws,
    ) -> int:
        """Fill *out* with the window's births and regenerated targets,
        round by round, keeping the alive order in place; returns the
        number of regenerated slots.

        In-lists of entries (``source_local·d + slot``) are kept only for
        the locals ``t < W`` that die in the window.  Round ``k``'s
        orphans are the entries of local ``k − 1`` whose source is still
        alive (``source_local ≥ k``), ascending.  No liveness check on
        the slot is needed: a slot's target changes only when that
        target dies, and each new target outlives it, so every listed
        entry still points at ``t`` when ``t`` dies.

        The draws are :meth:`apply_exact_rounds`'s.  An orphan draws over
        the ``n − 1`` survivors in alive order and rejects its own
        source; a rejected value is dropped and the take's later values
        go on to the same orphan, so only the shortfall is drawn again.
        The newborn, last of ``n``, draws over all and rejects itself.
        """
        alive = self.alive
        items = alive._items
        position = alive._pos
        out_flat = out.reshape(-1)
        seeded = np.flatnonzero((out_flat[: n * d] >= 0) & (out_flat[: n * d] < W))
        in_lists = grouped(seeded, out_flat[seeded], W)

        take = source.take
        last = n - 1  # the newborn's index; also the survivors' count
        round_words = _ROUND_WORDS * d
        final: dict[int, int] = {}  # entry -> last regenerated target
        births: list[list[int]] = []
        for k in range(1, W + 1):
            rest = W - k  # rounds after this one
            dead = base + k - 1
            at = position.pop(dead)
            moved = items.pop()
            if moved != dead:
                items[at] = moved
                position[moved] = at
            # Entries >= k·d belong to sources alive this round.
            orphans = in_lists[k - 1]
            orphans.sort()
            del orphans[: bisect_left(orphans, k * d)]
            count = len(orphans)
            i = 0
            while i < count:
                for v in take(
                    last, count - i, d + round_words * rest, d * (rest + 1)
                ):
                    t = items[v] - base
                    e = orphans[i]
                    if t != e // d:
                        final[e] = t
                        if t < W:
                            in_lists[t].append(e)
                        i += 1
            node = dead + n
            position[node] = last
            items.append(node)
            row = take(n, d, round_words * rest, d * rest)
            if last in row:
                row = [v for v in row if v != last]
                while len(row) < d:
                    for v in take(n, d - len(row), round_words * rest, d * rest):
                        if v != last:
                            row.append(v)
            row = [items[v] - base for v in row]
            births.append(row)
            e = (node - base) * d
            for t in row:
                if t < W:
                    in_lists[t].append(e)
                e += 1
        # in_lists[k − 1] now holds round k's orphans.
        out[n:] = births
        if final:
            out_flat[list(final)] = list(final.values())
        return sum(map(len, in_lists))

    def _fused_birth_rounds(
        self,
        out: np.ndarray,
        base: int,
        n: int,
        W: int,
        d: int,
        source: RawWordDraws,
    ) -> None:
        """Fill *out* with the window's births when nothing regenerates,
        in a few array passes, and leave the alive order as the rounds do.
        Only the births that can target a survivor are filled.

        Every draw is a birth over ``n`` with a redraw on ``n − 1`` (the
        newborn itself), so the window's draws are one flat stream.  The
        alive order follows the schedule alone: round ``k`` moves the
        last entry (the previous newborn) into the dying local's position
        ``at_k`` and appends its newborn.  Only that last entry ever
        moves, so a newborn dies where the next round put it: ``at_k =
        at_{k−n+1}`` once ``k > n``.  A pool index ``v`` of round ``k``
        then names the last write to position ``v`` up to round ``k``,
        found with one ``searchsorted`` over the writes' ``(position,
        round)`` keys, or else the window's first order.
        """
        items0 = np.asarray(self.alive._items, dtype=np.int64) - base
        draws = source.take_array(n, W * d, redraw_last=True).reshape(W, d)
        pos0 = np.empty(n, dtype=np.int64)
        pos0[items0] = np.arange(n)
        at = np.empty(W, dtype=np.int64)
        first = min(W, n)
        at[:first] = pos0[:first]
        moved = int(items0[-1])  # moved by round 1 into local 0's place
        if 0 < moved < first:
            at[moved] = pos0[0]
        if W > n:
            at[n:] = at[1 + np.arange(n - 1, W - 1) % (n - 1)]
        values = np.arange(n - 1, n - 1 + W, dtype=np.int64)
        values[0] = moved
        span = W + 1
        keys = at * span + np.arange(1, W + 1)
        order = np.argsort(keys)
        keys = keys[order]
        values = values[order]
        # A newborn targets older locals only, so the births of the
        # newborns up to local W target only locals that die in the
        # window: their slots end cleared (-1), as ``out`` starts.
        skip = max(W - n + 1, 0)
        pool = draws[skip:]
        queries = pool * span + np.arange(skip + 1, W + 1)[:, None]
        hit = np.maximum(np.searchsorted(keys, queries, side="right") - 1, 0)
        found = keys[hit]
        written = (found <= queries) & (found // span == pool)
        out[n + skip :] = np.where(written, values[hit], items0[pool])
        # The final order: each position's last write, the newborn last.
        positions = keys // span
        ends = np.append(positions[1:] != positions[:-1], True)
        final = items0.copy()
        final[positions[ends]] = values[ends]
        final[n - 1] = n + W - 1
        self.alive = IndexedSet.from_unique_list((final + base).tolist())

    # ------------------------------------------------------------------
    # exact streaming rounds (the per-event law, a window at a time)
    # ------------------------------------------------------------------

    def apply_exact_rounds(
        self,
        first_round: int,
        rounds: int,
        n: int,
        d: int,
        regenerate: bool,
        rng: np.random.Generator,
    ) -> list[tuple]:
        """Run streaming rounds ``first_round … first_round + rounds − 1``
        exactly as the uniform policies' hooks would, one round after
        another; returns each round's log entry, the plain ints and lists
        :func:`~repro.sim.events.decode_round_log` turns into the hooks'
        event records when someone reads them.

        Round ``r`` at time ``r``: when ``r > n`` node ``r − n − 1`` dies
        (``EdgePolicy.handle_death``), each orphan in ascending
        ``(source, slot)`` order re-targets when *regenerate* (the walk
        of ``IndexedSet.sample_each_excluding`` over the ``n − 1``
        survivors), then node ``r − 1`` is born with *d* requests (the
        same walk over the alive set with the newborn last).  Decoded
        records, slots, in-counts, alive order, epoch, touched ids, the
        generator state and the reverse index's sets, when it exists,
        all end as that hook loop leaves them, and the checks of
        :meth:`remove_node`, :meth:`add_node` and :meth:`assign_slots`
        all still run.

        A death reads the dying row of the reverse index when it exists.
        Otherwise the window builds none: the orphans come from in-lists
        of keys ``source id · width + slot`` made at its start for every
        node that dies in it (:meth:`_in_slot_keys`); each slot the
        window writes is appended to the list of its target when that
        target dies later, and the lists of nodes that outlive the window
        are kept for the next one.

        Every draw comes from one
        :class:`~repro.util.sampling.RawWordDraws` source, closed at the
        end of the window.  Each take tells it the words the rest of the
        window is expected to need and the draws certain to follow (the
        round's birth and every later round's), so a one-round window
        draws one block that it uses up: no state save and no rewind.
        """
        if d > self._width:
            self._grow_cols(d)
        width = self._width
        last_round = first_round + rounds - 1
        # Without the reverse index: the in-slot keys (source id · width
        # + slot) of the nodes that die in the window, listed at its
        # start; the window's own writes to them are appended as they
        # happen.
        first_dead = max(first_round, n + 1) - n - 1
        last_dead = last_round - n - 1
        in_keys = self._in_slot_keys(first_dead, last_dead)
        listed_end = first_dead + len(in_keys)
        in_refs = self._in_refs  # edited only when it exists
        row_of = self._row_of
        items = self.alive._items
        position = self.alive._pos
        free = self._free
        slots = self._slots
        num_slots = self._num_slots
        birth = self._birth
        id_of = self._id_of
        alive_rows = self._alive_rows
        in_count = self._in_count
        touched: list[int] | None = [] if self._touched is not None else None
        mutations = 0
        # Words a round is expected to take: d births, and with
        # regeneration up to 2d orphans.
        round_words = (_ROUND_WORDS if regenerate else 1) * d
        out: list[tuple] = []
        try:
            with RawWordDraws(rng) as source:
                take = source.take
                for r in range(first_round, last_round + 1):
                    time = float(r)
                    rest = last_round - r  # rounds after this one
                    dead = neighbours = owners = regenerated = None
                    pairs: list[tuple[int, int]] = []
                    writes: list[int] = []
                    if r > n:
                        # ---- death (handle_death + remove_node) ----
                        dead = r - n - 1
                        row = row_of.get(dead)
                        if row is None:
                            raise SimulationError(
                                f"cannot remove node {dead}: not alive"
                            )
                        own = slots[row, : num_slots.item(row)].tolist()
                        if in_refs is not None:
                            orphaned = sorted(in_refs[row])
                        else:
                            # A slot changes target only when its target
                            # dies, and the new target outlives it, so a
                            # listed key still points here unless its
                            # source died first (deaths go in id order).
                            # The rest are the orphans, in ascending
                            # (source, slot) order.
                            keys = in_keys[dead - first_dead]
                            keys.sort()
                            del keys[: bisect_left(keys, (dead + 1) * width)]
                            orphaned = [divmod(key, width) for key in keys]
                        neighbours = {id_of.item(t) for t in own if t >= 0}
                        neighbours.update(s for s, _ in orphaned)
                        del row_of[dead]
                        at = position.pop(dead)
                        moved = items.pop()
                        if moved != dead:
                            items[at] = moved
                            position[moved] = at
                        alive_rows[row] = False
                        if touched is not None:
                            touched.append(dead)
                        for j, t in enumerate(own):
                            if t >= 0:
                                if in_refs is not None:
                                    in_refs[t].discard((dead, j))
                                in_count[t] = in_count.item(t) - 1
                                if touched is not None:
                                    touched.append(id_of.item(t))
                        slots[row] = -1
                        for s, j in orphaned:
                            slots[row_of[s], j] = -1
                        if touched is not None:
                            touched.extend(s for s, _ in orphaned)
                        if in_refs is not None:
                            in_refs[row] = set()
                        in_count[row] = 0
                        id_of[row] = -1
                        num_slots[row] = 0
                        birth[row] = 0.0
                        free.append(row)
                        mutations += 1
                        # ---- regeneration (RegenerationPolicy.repair_orphans) ----
                        size = len(items)
                        if regenerate and orphaned and size >= 2:
                            owners = [s for s, _ in orphaned]
                            count = len(owners)
                            targets: list[int] = []
                            while len(targets) < count:
                                for v in take(
                                    size,
                                    count - len(targets),
                                    d + round_words * rest,
                                    d * (rest + 1),
                                ):
                                    candidate = items[v]
                                    if candidate != owners[len(targets)]:
                                        targets.append(candidate)
                            pairs = orphaned
                            writes = regenerated = targets
                    # ---- birth (handle_birth + add_node) ----
                    node = self._next_id
                    self._next_id = node + 1
                    if node != r - 1:
                        raise SimulationError(
                            f"id drift: allocated {node}, schedule expects "
                            f"{r - 1}"
                        )
                    if node in row_of:
                        raise SimulationError(f"node id {node} already exists")
                    if free:
                        row = free.pop()
                    else:
                        if self._high == self._cap:
                            self._grow_rows(self._cap * 2)
                            slots = self._slots
                            num_slots = self._num_slots
                            birth = self._birth
                            id_of = self._id_of
                            alive_rows = self._alive_rows
                            in_count = self._in_count
                        row = self._high
                        self._high = row + 1
                    slots[row] = -1
                    num_slots[row] = d
                    birth[row] = time
                    id_of[row] = node
                    alive_rows[row] = True
                    in_count[row] = 0
                    row_of[node] = row
                    position[node] = len(items)
                    items.append(node)
                    mutations += 1
                    if touched is not None:
                        touched.append(node)
                    targets = []
                    size = len(items)
                    if size >= 2:
                        last = size - 1  # the newborn's own index
                        while len(targets) < d:
                            for v in take(
                                size, d - len(targets), round_words * rest, d * rest
                            ):
                                if v != last:
                                    targets.append(items[v])
                        pairs = pairs + [(node, j) for j in range(d)]
                        writes = writes + targets
                    # The round's regeneration, then birth, slot writes.
                    self.assign_slots(pairs, writes)
                    if writes and min(writes) < listed_end:
                        for (s, j), t in zip(pairs, writes):
                            if first_dead <= t < listed_end:
                                in_keys[t - first_dead].append(s * width + j)
                    out.append(
                        (time, dead, neighbours, owners, regenerated, node, targets)
                    )
        finally:
            if mutations:
                self._note_mutation(touched or (), mutations)
        kept = in_keys[last_dead - first_dead + 1 :]
        if kept:
            self._kept_keys = (self._mutation_epoch, last_dead + 1, kept)
        return out

    # ------------------------------------------------------------------
    # bulk capped placement (RAES / capped-regeneration fast path)
    # ------------------------------------------------------------------

    def place_slots_capped(
        self,
        sources: Sequence[int],
        slot_indices: Sequence[int],
        cap: int,
        max_attempts: int,
        rng: np.random.Generator,
        highs: Sequence[int] | None = None,
        source_rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fill empty slots in bulk, rejecting targets at the in-degree cap.

        The vectorized accept/reject dynamic behind
        :class:`~repro.core.edge_policy.RAESPolicy` and the batched
        :class:`~repro.core.edge_policy.CappedRegenerationPolicy` paths.
        Each *attempt round* draws one uniform candidate per still-pending
        slot in a single ``rng.integers`` call and tallies the round's
        proposals per target row with ``np.bincount``.  A target whose
        current in-slot count plus tally stays within *cap* accepts
        everything (the common case — one fully vectorized pass); an
        oversubscribed target accepts proposals in request order up to its
        remaining capacity and rejects the overflow, which re-samples next
        round.  Request order is the sequential loop's processing order,
        so a birth batch gives earlier newborns (whose candidate pools are
        smallest) the same priority the per-event path gives them.  Rounds
        repeat until every slot is placed or *max_attempts* is exhausted.

        Args:
            sources: owning node ids of the slots to fill (must be alive;
                the same id may appear once per empty slot).
            slot_indices: slot index of each request, aligned with
                *sources*; the addressed slots must currently be empty.
            cap: hard in-degree cap enforced on every target.
            max_attempts: number of accept/reject rounds before giving up
                on a slot (it stays empty, exactly like the sequential
                rejection loop).
            rng: randomness source for the candidate draws.
            highs: optional per-request candidate-pool prefix sizes over
                the alive set's internal order — newborn ``k`` of a birth
                batch passes ``m0 + k`` so it only targets nodes present
                when it joined (mirroring the base
                :meth:`~repro.core.edge_policy.EdgePolicy.handle_births`).
                When omitted every request draws from all alive nodes
                except its own source.
            source_rows: the rows of *sources*, when the caller already
                knows them (the batched birth path does); skips the
                per-request id→row translation.

        Returns:
            Target node ids aligned with *sources* (−1 where the slot
            could not be placed).  Same placement *law* as the sequential
            per-slot loop, different RNG stream consumption — this is a
            batch path, not a per-event path.
        """
        in_refs = self._in_refs
        source_ids = np.asarray(sources, dtype=np.int64)
        slot_cols = np.asarray(slot_indices, dtype=np.int64)
        count = len(source_ids)
        placed = np.full(count, -1, dtype=np.int64)
        if count == 0:
            return placed
        if source_rows is not None:
            srows = np.asarray(source_rows, dtype=np.int64)
        else:
            row_of = self._row_of
            srows = np.fromiter(
                (row_of[s] for s in source_ids.tolist()),
                dtype=np.int64,
                count=count,
            )
        if np.any(self._slots[srows, slot_cols] >= 0):
            raise SimulationError("place_slots_capped needs empty slots")

        pool_ids = self.alive.as_list()
        m = len(pool_ids)
        pool_rows = self.rows_for(pool_ids)
        if highs is None:
            if m <= 1:
                return placed  # nobody but the sources themselves
            # Draw from [0, m-1) and shift past the source's own pool
            # position: exact uniform-over-others, no rejection needed.
            pos = np.empty(self._cap, dtype=np.int64)
            pos[pool_rows] = np.arange(m)
            self_pos = pos[srows]
            bounds = np.full(count, m - 1, dtype=np.int64)
        else:
            self_pos = None
            bounds = np.asarray(highs, dtype=np.int64)
            if len(bounds) != count:
                raise SimulationError(
                    f"{count} placement requests but {len(bounds)} pool bounds"
                )

        in_count = self._in_count
        pending = np.nonzero(bounds > 0)[0]
        for _ in range(max_attempts):
            if not pending.size:
                break
            draws = rng.integers(0, bounds[pending])
            if self_pos is not None:
                draws += draws >= self_pos[pending]
            trows = pool_rows[draws]
            proposals = np.bincount(trows, minlength=self._cap)
            room = cap - in_count[trows]
            if np.all(proposals[trows] <= room):
                accepted = room > 0
            else:
                # Rank each proposal among the round's proposals to the
                # same target, in request (= pending) order; a target
                # accepts the first `room` of them and rejects the rest.
                order = np.argsort(trows, kind="stable")
                sorted_rows = trows[order]
                positions = np.arange(sorted_rows.size)
                group_starts = positions[
                    np.r_[True, sorted_rows[1:] != sorted_rows[:-1]]
                ]
                start_of = np.repeat(
                    group_starts,
                    np.diff(np.r_[group_starts, sorted_rows.size]),
                )
                ranks = np.empty(sorted_rows.size, dtype=np.int64)
                ranks[order] = positions - start_of
                accepted = ranks < room
            hit = pending[accepted]
            if hit.size:
                accepted_rows = trows[accepted]
                self._slots[srows[hit], slot_cols[hit]] = accepted_rows
                np.add.at(in_count, accepted_rows, 1)
                if in_refs is not None:
                    for s, j, trow in zip(
                        source_ids[hit].tolist(),
                        slot_cols[hit].tolist(),
                        accepted_rows.tolist(),
                    ):
                        in_refs[trow].add((s, j))
                placed[hit] = self._id_of[accepted_rows]
            pending = pending[~accepted]
        if self._touched is not None:
            self._touched.update(source_ids.tolist())
            self._touched.update(placed[placed >= 0].tolist())
        self._note_mutation()
        return placed

    # ------------------------------------------------------------------
    # vectorized reads: CSR adjacency, degree vectors, frontier boundary
    # ------------------------------------------------------------------

    def _ensure_csr(self) -> None:
        if self._csr_epoch == self._mutation_epoch:
            return
        cap = self._cap
        mask = self._slots >= 0
        src = np.nonzero(mask)[0]
        tgt = self._slots[mask]
        u = np.concatenate([src, tgt])
        v = np.concatenate([tgt, src])
        # Sort + adjacent-difference dedupe: the same sorted distinct
        # keys as np.unique, without its hash-based path.
        keys = np.sort(u * np.int64(cap) + v)
        if keys.size:
            distinct = np.empty(keys.size, dtype=bool)
            distinct[0] = True
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            keys = keys[distinct]
        uu = keys // cap
        vv = keys % cap
        counts = np.bincount(uu, minlength=cap)
        index_dtype = csr_index_dtype(cap, len(keys))
        indptr = np.zeros(cap + 1, dtype=index_dtype)
        np.cumsum(counts, out=indptr[1:])
        self._csr_indptr = indptr
        self._csr_indices = vv.astype(index_dtype, copy=False)
        self._csr_edge_count = len(keys) // 2
        self._csr_epoch = self._mutation_epoch

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the distinct-neighbour adjacency over
        rows, rebuilt lazily (at most once per topology version)."""
        self._ensure_csr()
        assert self._csr_indptr is not None and self._csr_indices is not None
        return self._csr_indptr, self._csr_indices

    def degree_vector(self) -> np.ndarray:
        """Distinct-neighbour degrees aligned with :meth:`alive_ids` order."""
        ids = self.alive_ids()
        if not ids:
            return np.zeros(0, dtype=np.int64)
        indptr, _ = self.adjacency_csr()
        rows = self.rows_for(ids)
        return indptr[rows + 1] - indptr[rows]

    def boundary_rows(self, informed_mask: np.ndarray) -> np.ndarray:
        """Rows adjacent to (but outside) the informed row mask.

        This is the vectorized Definition 3.1 outer boundary: the targets
        of informed rows' slots, plus every row owning a slot that points
        into the informed mask — no CSR rebuild, no Python-level loop.
        """
        slots = self._slots
        boundary = np.zeros(self._cap, dtype=bool)
        informed_rows = np.nonzero(informed_mask)[0]
        if informed_rows.size:
            out = slots[informed_rows]
            out = out[out >= 0]
            boundary[out] = True
        valid = slots >= 0
        hits = valid & informed_mask[np.where(valid, slots, 0)]
        boundary |= hits.any(axis=1)
        boundary &= ~informed_mask
        boundary &= self._alive_rows
        return boundary

    def boundary_of(self, nodes: Iterable[int]) -> set[int]:
        """``∂out(S)`` as a set of node ids (vectorized internally)."""
        mask = np.zeros(self._cap, dtype=bool)
        rows = self.rows_for(nodes)
        if rows.size == 0:
            return set()
        mask[rows] = True
        boundary = self.boundary_rows(mask)
        return {int(i) for i in self._id_of[np.nonzero(boundary)[0]]}

    # ------------------------------------------------------------------
    # state serialization (service plane)
    # ------------------------------------------------------------------

    def dump_state(self) -> dict:
        """Serialize the full mutable state to a JSON-able dict.

        Only the touched row prefix ``[:_high]`` of each dense array is
        emitted; the free-list order is preserved verbatim because
        :meth:`_take_row` pops from its end (row assignment order is
        RNG-visible through batched births).  The lazy CSR cache is not
        serialized — restore marks it stale and it rebuilds on demand.
        """
        high = self._high
        return {
            "kind": "array",
            "next_id": self._next_id,
            "mutation_epoch": self._mutation_epoch,
            "capacity": self._cap,
            "width": self._width,
            "high": high,
            "free": [int(row) for row in self._free],
            "alive": [int(u) for u in self.alive],
            "slots": self._slots[:high],
            "num_slots": self._num_slots[:high],
            "birth": self._birth[:high],
            "id_of": self._id_of[:high],
            "alive_rows": self._alive_rows[:high],
        }

    def restore_state(self, payload: dict) -> None:
        """Restore state previously produced by :meth:`dump_state`.

        Payloads from before the CSR index width was worked out from sizes
        carry one more flag and may hold an int32 id column: the flag is
        ignored and the ids widen to int64.
        """
        self._cap = int(payload["capacity"])
        self._width = int(payload["width"])
        high = int(payload["high"])
        self._high = high
        self._slots = np.full((self._cap, self._width), -1, dtype=np.int64)
        self._num_slots = np.zeros(self._cap, dtype=np.int32)
        self._birth = np.zeros(self._cap, dtype=np.float64)
        self._id_of = np.full(self._cap, -1, dtype=np.int64)
        self._alive_rows = np.zeros(self._cap, dtype=bool)
        self._slots[:high] = np.asarray(payload["slots"], dtype=np.int64)
        self._num_slots[:high] = np.asarray(payload["num_slots"], dtype=np.int32)
        self._birth[:high] = np.asarray(payload["birth"], dtype=np.float64)
        self._id_of[:high] = np.asarray(payload["id_of"], dtype=np.int64)
        self._alive_rows[:high] = np.asarray(payload["alive_rows"], dtype=bool)
        self._free = [int(row) for row in payload["free"]]
        # Derived indices: _row_of from the id column, _in_count from the
        # slot matrix; the reverse index is snapshotted lazily, as after
        # any other batch write.
        self._row_of = {
            int(self._id_of[row]): int(row)
            for row in np.nonzero(self._alive_rows)[0]
        }
        self._in_refs = None
        targets = self._slots[self._slots >= 0]
        self._in_count = np.bincount(targets, minlength=self._cap).astype(np.int32)
        self.alive = IndexedSet(payload["alive"])
        self._next_id = int(payload["next_id"])
        self._mutation_epoch = int(payload["mutation_epoch"])
        self._csr_epoch = -1
        self._csr_indptr = None
        self._csr_indices = None
        self._csr_edge_count = 0
        self._kept_keys = None  # the restored epoch may equal its epoch
        self._touched = None

    # ------------------------------------------------------------------
    # snapshot / verification
    # ------------------------------------------------------------------

    def csr_view(self, time: float) -> CSRView:
        """Zero-copy :class:`CSRView` export (verts are backend rows).

        ``indptr``/``indices`` are the lazily rebuilt CSR arrays and
        ``vert_ids``/``birth`` alias the dense row stores — nothing is
        copied; the only per-call work is sorting the alive rows into
        ascending node-id order.  The returned view aliases live state
        and is valid until the next topology mutation (the caller's
        observation window).
        """
        indptr, indices = self.adjacency_csr()
        rows = np.nonzero(self._alive_rows)[0]
        order = np.argsort(self._id_of[rows])
        return CSRView(
            time=time,
            indptr=indptr,
            indices=indices,
            vert_ids=self._id_of,
            birth=self._birth,
            alive_verts=rows[order],
            vert_of=self._row_of,
        )

    def snapshot(self, time: float) -> Snapshot:
        """Freeze the current topology (CSR is rebuilt lazily here)."""
        nodes = self.alive.as_list()
        indptr, indices = self.adjacency_csr()
        id_of = self._id_of
        row_of = self._row_of
        adjacency: dict[int, frozenset[int]] = {}
        birth_times: dict[int, float] = {}
        out_slots: dict[int, tuple[int | None, ...]] = {}
        for u in nodes:
            row = row_of[u]
            nbr_rows = indices[indptr[row] : indptr[row + 1]]
            adjacency[u] = frozenset(int(i) for i in id_of[nbr_rows])
            birth_times[u] = float(self._birth[row])
            out_slots[u] = tuple(self.out_slots_of(u))
        return Snapshot(
            time=time,
            nodes=frozenset(nodes),
            adjacency=adjacency,
            birth_times=birth_times,
            out_slots=out_slots,
        )

    def check_invariants(self) -> None:
        """Raise :class:`SimulationError` if internal indices disagree.

        Checked invariants:
          * id/row maps are mutually consistent with the alive structures;
          * every assigned slot points at an alive row and is registered
            in the target's reverse index;
          * every reverse-index entry corresponds to a real assignment;
          * the dense ``_in_count`` mirror equals ``len(_in_refs[row])``
            on every used row;
          * free rows are fully cleared (no stale slots or reverse refs);
          * CSR degrees and the cached edge count match a recount.
        """
        in_refs = self._ensure_in_refs()
        for node_id, row in self._row_of.items():
            if self._id_of[row] != node_id:
                raise SimulationError(f"row map corrupt for node {node_id}")
            if not self._alive_rows[row] or node_id not in self.alive:
                raise SimulationError(f"alive bookkeeping corrupt for {node_id}")
        if len(self._row_of) != self.num_alive():
            raise SimulationError("row map and alive set sizes disagree")

        pairs: set[tuple[int, int]] = set()
        for node_id, row in self._row_of.items():
            for slot_index in range(int(self._num_slots[row])):
                trow = self._slots[row, slot_index]
                if trow < 0:
                    continue
                if not self._alive_rows[trow]:
                    raise SimulationError(
                        f"slot ({node_id},{slot_index}) points at dead row {trow}"
                    )
                if (node_id, slot_index) not in in_refs[trow]:
                    raise SimulationError(
                        f"slot ({node_id},{slot_index}) missing from in_refs"
                    )
                target = int(self._id_of[trow])
                pairs.add((min(node_id, target), max(node_id, target)))
        for row in range(self._high):
            if self._in_count[row] != len(in_refs[row]):
                raise SimulationError(
                    f"in_count[{row}] = {self._in_count[row]} but "
                    f"{len(in_refs[row])} reverse refs are registered"
                )
            for source, slot_index in in_refs[row]:
                srow = self._row_of.get(source)
                if srow is None or self._slots[srow, slot_index] != row:
                    raise SimulationError(
                        f"stale in_ref ({source},{slot_index}) -> row {row}"
                    )
        for row in self._free:
            if (
                self._id_of[row] != -1
                or self._alive_rows[row]
                or in_refs[row]
                or self._in_count[row]
                or np.any(self._slots[row] >= 0)
            ):
                raise SimulationError(f"free row {row} is not fully cleared")

        if self.num_edges() != len(pairs):
            raise SimulationError(
                f"CSR edge count {self.num_edges()} != recount {len(pairs)}"
            )
        for node_id in self.alive_ids():
            indptr, _ = self.adjacency_csr()
            row = self._row_of[node_id]
            if indptr[row + 1] - indptr[row] != len(self.neighbors(node_id)):
                raise SimulationError(f"CSR degree mismatch for node {node_id}")
