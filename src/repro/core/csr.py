"""The CSR analysis plane: zero-copy topology views for vectorized analyses.

A :class:`CSRView` is the *measurement* counterpart of
:class:`~repro.core.snapshot.Snapshot`: where a snapshot freezes the
topology into Python dicts of frozensets (the readable reference
representation), a view exposes the same instant as a handful of NumPy
arrays — a CSR adjacency over *verts* (storage indices), the id/birth
arrays aligned with those verts, and the alive verts in canonical
ascending-node-id order.  Every hot analysis (expansion probes, degree
summaries, isolated/component censuses, distances, spectra) has exactly
one implementation, on top of this structure; a snapshot handed to an
analysis is converted once, at entry, by :func:`as_view`.

On the :class:`~repro.core.array_backend.ArraySlotBackend` a view is
**zero-copy**: ``indptr``/``indices`` are the backend's lazily rebuilt
CSR and ``vert_ids``/``birth`` alias its dense row arrays, so building a
view costs one alive-row argsort instead of an O(n·d) dict freeze.  From
a snapshot the arrays are built in one pass; a snapshot memoizes its
view, so repeated analyses of one snapshot pay the conversion once.
Both builders size ``indptr``/``indices`` with :func:`csr_index_dtype`:
int32 while the vert space and the directed entry count fit below 2^31,
int64 beyond.  Node ids stay int64.

**Lifetime contract:** a view aliases live backend storage, so it is
only valid until the next topology mutation — use it within the
observation window that built it (exactly what
:class:`~repro.scenario.simulation.Simulation` does) and reach for a
:class:`Snapshot` when the frozen topology must outlive the window.

The module also hosts the canonical 64-bit set-hashing helpers
(:func:`mix64`, :func:`candidate_key`) the expansion portfolio
deduplicates candidate sets with; the scalar and vectorized variants
are bit-identical, so a candidate gets the same key whichever sweep
produced it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.snapshot import Snapshot

_MASK64 = (1 << 64) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer of one integer (scalar reference path)."""
    z = (value + _MIX_A) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_B) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C) & _MASK64
    return z ^ (z >> 31)


def mix64_array(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized; bit-identical to :func:`mix64`."""
    z = values.astype(np.uint64) + np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_B)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_C)
    return z ^ (z >> np.uint64(31))


def candidate_key(size: int, xor_of_mixed_ids: int) -> int:
    """Canonical 64-bit key of a candidate node set.

    ``xor_of_mixed_ids`` is the XOR of :func:`mix64` over the member node
    ids — order-independent and incrementally updatable, which is what
    lets the vectorized BFS/greedy sweeps maintain it per frontier step.
    Mixing the size back in separates sets whose XORs happen to agree.
    Both expansion paths deduplicate with this exact key, so they skip
    (and count) the identical candidates.
    """
    return mix64(xor_of_mixed_ids ^ mix64(size))


def candidate_key_array(sizes: np.ndarray, xors: np.ndarray) -> np.ndarray:
    """Vectorized :func:`candidate_key` (bit-identical to the scalar)."""
    return mix64_array(xors ^ mix64_array(sizes))


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i]+counts[i])`` index ranges.

    The gather index behind every CSR neighbour sweep: the result indexes
    ``indices`` for all listed verts at once.  Position ``k`` of range
    ``i`` is ``starts[i] + (k - offsets[i])``, so the whole result is one
    ``repeat`` of ``starts - offsets`` plus an ``arange``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(np.asarray(starts, dtype=np.int64) - (ends - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Sort *keys* in place and return its distinct values.

    A sort and a neighbour comparison: faster than ``np.unique``'s hash
    for the flat keys of one BFS shell or boundary pass.
    """
    keys.sort()
    if keys.size == 0:
        return keys
    distinct = np.empty(keys.size, dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    return keys[distinct]


#: Members per :meth:`CSRView.boundary_counts` batch.  Small sets gain
#: from sharing one pass, but one sort of a large batch's keys (about
#: this times the mean degree) falls out of cache: on SDGR d = 8 with 200
#: random sets (2 vCPUs), 4096 members took 5.5 ms against 14 ms set by
#: set for sizes up to 32 at n = 2000, and 278 ms against 265 ms set by
#: set and 364 ms for 2**18 members at full range, n = 1e4.
_BOUNDARY_BATCH_MEMBERS = 1 << 12


#: Flat keys and CSR indices are int32 while every value they hold stays
#: below this, and int64 beyond it (see :func:`flat_key_dtype` and
#: :func:`csr_index_dtype`).
_INT32_KEYS_BELOW = 1 << 31


def flat_key_dtype(rows: int, space: int) -> type:
    """Narrowest dtype holding the flat keys of *rows* rows of *space* verts.

    int32 keys halve the bytes every sort, dedupe and ``searchsorted``
    moves.  The largest value is the top row bound ``rows*space``; the
    test keeps one more row of headroom.
    """
    return np.int32 if (rows + 1) * space < _INT32_KEYS_BELOW else np.int64


def csr_index_dtype(rows: int, entries: int) -> type:
    """Narrowest dtype of ``indptr``/``indices`` over *rows* verts holding
    *entries* directed entries.

    ``indices`` hold verts below *rows* and ``indptr`` offsets up to
    *entries*, so int32 serves while both fit; it halves the bytes every
    neighbour gather moves.
    """
    return np.int32 if max(rows, entries) < _INT32_KEYS_BELOW else np.int64


class CSRView:
    """Read-only CSR picture of the network at time ``time``.

    *Verts* are storage indices: backend rows on the array backend,
    positions in ascending-id order for dict-built views.  ``vert_ids``
    maps vert → node id (−1 on unused verts), ``alive_verts`` lists the
    verts of alive nodes in **ascending node-id order** (the canonical
    candidate order the analyses share), and ``indptr``/``indices`` hold
    the distinct-neighbour adjacency in both directions.
    """

    __slots__ = (
        "time",
        "indptr",
        "indices",
        "vert_ids",
        "birth",
        "alive_verts",
        "_vert_of",
        "_ids",
        "_degrees",
        "_mix",
    )

    def __init__(
        self,
        time: float,
        indptr: np.ndarray,
        indices: np.ndarray,
        vert_ids: np.ndarray,
        birth: np.ndarray,
        alive_verts: np.ndarray,
        vert_of: dict[int, int] | None = None,
    ) -> None:
        self.time = float(time)
        self.indptr = indptr
        self.indices = indices
        self.vert_ids = vert_ids
        self.birth = birth
        self.alive_verts = alive_verts
        self._vert_of = vert_of
        self._ids: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._mix: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of alive nodes."""
        return int(self.alive_verts.size)

    @property
    def space(self) -> int:
        """Size of the vert index space (masks must use this length)."""
        return int(self.vert_ids.size)

    @property
    def ids(self) -> np.ndarray:
        """Alive node ids, ascending (aligned with :attr:`alive_verts`)."""
        if self._ids is None:
            self._ids = self.vert_ids[self.alive_verts]
        return self._ids

    @property
    def degrees(self) -> np.ndarray:
        """Distinct-neighbour degrees aligned with :attr:`ids`."""
        if self._degrees is None:
            self._degrees = (
                self.indptr[self.alive_verts + 1] - self.indptr[self.alive_verts]
            )
        return self._degrees

    @property
    def mix(self) -> np.ndarray:
        """Per-vert :func:`mix64` of the node id (candidate-set hashing)."""
        if self._mix is None:
            self._mix = mix64_array(self.vert_ids)
        return self._mix

    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return int(self.indices.size) // 2

    @property
    def nbytes(self) -> int:
        """Bytes addressed by the view's arrays (lazy caches once built).

        Aliased backend storage is counted as-is: the hook reports what
        the analysis plane actually touches per window.
        """
        total = (
            self.indptr.nbytes
            + self.indices.nbytes
            + self.vert_ids.nbytes
            + self.birth.nbytes
            + self.alive_verts.nbytes
        )
        for cached in (self._ids, self._degrees, self._mix):
            if cached is not None:
                total += cached.nbytes
        return total

    def vert_of(self, node_id: int) -> int:
        """Vert of an alive node id."""
        if self._vert_of is None:
            ids = self.ids
            self._vert_of = dict(
                zip(ids.tolist(), self.alive_verts.tolist())
            )
        return self._vert_of[node_id]

    def verts_for(self, node_ids: Iterable[int]) -> np.ndarray:
        """Verts of alive *node_ids* (order preserved)."""
        return np.fromiter(
            (self.vert_of(u) for u in node_ids), dtype=np.int64
        )

    def degrees_of_verts(self, verts: np.ndarray) -> np.ndarray:
        return self.indptr[verts + 1] - self.indptr[verts]

    def neighbors_of_vert(self, vert: int) -> np.ndarray:
        """Neighbour verts of one vert (a slice of :attr:`indices`)."""
        return self.indices[self.indptr[vert] : self.indptr[vert + 1]]

    # ------------------------------------------------------------------
    # bulk sweeps
    # ------------------------------------------------------------------

    def gather_neighbors(self, verts: np.ndarray) -> np.ndarray:
        """Flattened neighbour verts of *verts*, row after row (with
        repeats where rows share a neighbour)."""
        counts = self.degrees_of_verts(verts)
        return self.indices[concat_ranges(self.indptr[verts], counts)]

    def boundary_count(self, member_verts: np.ndarray) -> int:
        """``|∂out(S)|`` of the distinct vert set *member_verts*."""
        return int(self.boundary_counts([member_verts])[0])

    def boundary_counts(self, sets: Sequence[np.ndarray]) -> np.ndarray:
        """``|∂out(S)|`` of each distinct vert set in *sets*, in one pass.

        Set ``s``'s verts become flat keys ``s*space + vert``: one gather
        and one sort dedupe every set's neighbours at once, a
        ``searchsorted`` against the sorted member keys drops the
        members themselves, and a ``searchsorted`` against the set
        bounds counts what is left per set.  Allocation stays
        O(Σ|S|·d̄) (no space-sized scratch mask); sets are taken in
        batches of at most :data:`_BOUNDARY_BATCH_MEMBERS` members (a
        larger set alone), so a large window's many big sets never
        gather all at once.
        """
        out = np.zeros(len(sets), dtype=np.int64)
        start = 0
        while start < len(sets):
            stop, members = start + 1, len(sets[start])
            while (
                stop < len(sets)
                and members + len(sets[stop]) <= _BOUNDARY_BATCH_MEMBERS
            ):
                members += len(sets[stop])
                stop += 1
            out[start:stop] = self._boundary_batch(sets[start:stop])
            start = stop
        return out

    def _boundary_batch(self, sets: Sequence[np.ndarray]) -> np.ndarray:
        count = len(sets)
        kdt = flat_key_dtype(count, self.space)
        bounds = np.arange(count + 1, dtype=kdt) * self.space
        verts = np.concatenate(sets)
        member_base = np.repeat(bounds[:-1], [len(s) for s in sets])
        degrees = self.degrees_of_verts(verts)
        keys = np.repeat(member_base, degrees)
        keys += self.indices[concat_ranges(self.indptr[verts], degrees)]
        keys = sorted_distinct(keys)
        member_keys = member_base + verts.astype(kdt, copy=False)
        member_keys.sort()
        pos = np.searchsorted(member_keys, keys)
        pos[pos == member_keys.size] = member_keys.size - 1
        outside = keys[member_keys[pos] != keys]
        return np.diff(np.searchsorted(outside, bounds))

    def ids_sorted(self, verts: np.ndarray) -> tuple[int, ...]:
        """Node ids of *verts* as an ascending tuple (witness format)."""
        return tuple(np.sort(self.vert_ids[verts]).tolist())


def csr_view_from_adjacency(
    time: float,
    ids: list[int],
    neighbors_of: Mapping[int, Iterable[int]],
    birth_fn: Callable[[int], float],
) -> CSRView:
    """Build a compact view (verts = ascending-id positions) in one pass."""
    ids = sorted(ids)
    n = len(ids)
    vert_of = {u: i for i, u in enumerate(ids)}
    counts = np.zeros(n, dtype=np.int64)
    flat: list[int] = []
    for i, u in enumerate(ids):
        row = [vert_of[v] for v in neighbors_of[u]]
        counts[i] = len(row)
        flat.extend(row)
    index_dtype = csr_index_dtype(n, len(flat))
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.asarray(flat, dtype=index_dtype)
    birth = np.fromiter(
        (birth_fn(u) for u in ids), dtype=np.float64, count=n
    )
    return CSRView(
        time=time,
        indptr=indptr,
        indices=indices,
        vert_ids=np.asarray(ids, dtype=np.int64),
        birth=birth,
        alive_verts=np.arange(n, dtype=np.int64),
        vert_of=vert_of,
    )


def csr_view_from_snapshot(snapshot: "Snapshot") -> CSRView:
    """Build the view of a frozen :class:`Snapshot` (one pass).

    This is the production conversion behind :func:`as_view`; callers
    normally go through :meth:`Snapshot.csr_view`, which memoizes it.
    """
    return csr_view_from_adjacency(
        time=snapshot.time,
        ids=list(snapshot.nodes),
        neighbors_of=snapshot.adjacency,
        birth_fn=lambda u: snapshot.birth_times[u],
    )


def as_view(graph: "Snapshot | CSRView") -> CSRView:
    """The :class:`CSRView` of *graph*: a view as-is, a snapshot converted.

    Every analysis entry point calls this once, so a :class:`Snapshot`
    argument goes through the same (only) implementation as a view.
    """
    if isinstance(graph, CSRView):
        return graph
    return graph.csr_view()
