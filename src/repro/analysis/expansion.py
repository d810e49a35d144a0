"""Vertex-expansion measurement (Definition 3.1).

Computing ``h_out(G) = min_{0<|S|≤n/2} |∂out(S)|/|S|`` exactly is NP-hard,
so the module offers three tools:

* :func:`vertex_expansion_exact` — exhaustive enumeration, for ``n ≤ 22``
  (used in tests and the small-n certification of EXP-03);
* :func:`adversarial_expansion_upper_bound` — a *certified upper bound* on
  ``h_out`` from a portfolio of adversarial candidate sets: singletons,
  BFS balls from every node, greedy boundary-minimising local search, and
  random sets.  If even this adversarial bound exceeds the paper's 0.1
  threshold, the graph passes the expander check far more stringently than
  random probing alone;
* :func:`large_set_expansion_probe` — the same portfolio restricted to the
  size window of the large-set lemmas (3.6 and 4.11), including the
  age-extreme sets (oldest-k, youngest-k) that are the natural worst cases
  in models without regeneration.

Both probes run on a :class:`~repro.core.csr.CSRView` — multi-source
BFS balls from one of two kernels (flat-key mask frontiers, whose cost
follows the sources and the window, or bitset levels that grow every
vert's ball at once, whose cost follows the view; a cost model picks
one per call, see :meth:`_CSRProbe.ball_phase`), whose candidate stream
is recorded and then scored in one vectorized pass (the same
:meth:`_CSRProbe.score_recorded` the incremental plane uses), a greedy
growth that keeps each boundary vert's count up to date in a heap, and
batched random-set and age/degree-prefix ratios (every set of a phase
is drawn first, then all are scored in one flat-key pass,
:meth:`~repro.core.csr.CSRView.boundary_counts`); a frozen
:class:`~repro.core.snapshot.Snapshot` argument is converted once at
entry.  Candidates are ordered canonically (ascending node id), ties
break on ``(ratio, |S|, sorted ids)``, and duplicates are removed with
the :func:`~repro.core.csr.candidate_key` hashing, so probe minima,
witnesses, and ``candidates_checked`` do not depend on the topology
backend.  The test suite checks them exactly against a set-based
reference portfolio, and against exhaustive enumeration on small graphs.

All candidates are genuine subsets, so every reported ratio is an exact
expansion of a real set: the minimum over candidates is always a valid
upper bound on ``h_out``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.csr import (
    CSRView,
    as_view,
    candidate_key,
    candidate_key_array,
    concat_ranges,
    flat_key_dtype,
    sorted_distinct,
)
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.models.base import DynamicNetwork

#: Hard cap for exhaustive enumeration (sum of binomials stays ~ 3M).
EXACT_ENUMERATION_LIMIT = 22

#: Sources per vectorized multi-source BFS chunk.  Each shell step's key
#: arrays grow with it: at d = 8 (mean distinct degree about 16) a
#: 512-source chunk gathers about 130k keys at radius 1, which overflows
#: cache.  256 cut the ball phase of an n = 2000, ``max_size=32`` SDGR
#: probe from 22 to 17 ms on its own (2 vCPUs, best of 30); 128 and 256
#: tie at full range.
_BALL_CHUNK = 256

#: Byte budget of the chunked BFS ``visited`` mask: at large vert spaces
#: the chunk shrinks so the mask never exceeds this (a (512, 2M) boolean
#: buffer would otherwise cost ~1 GB at n = 1e6).
_BALL_SCRATCH_BYTES = 128 << 20

# One reusable all-False visited buffer, shared by every ball sweep in
# the process (the kernels clear exactly the bits they set, so reuse is
# free).  Probes run on the simulation thread; this scratch is not
# thread-safe, like the backends themselves.
_ball_visited: np.ndarray | None = None


def _ball_scratch(chunk: int, space: int) -> np.ndarray:
    """Flat view of the first *chunk* rows: row r's vert v is ``r*space + v``."""
    global _ball_visited
    buf = _ball_visited
    if buf is None or buf.shape[0] < chunk or buf.shape[1] != space:
        buf = np.zeros((chunk, space), dtype=bool)
        _ball_visited = buf
    # A leading row slice of a C-contiguous buffer is contiguous, so this
    # reshape is a view: writes through it land in the shared scratch.
    return buf[:chunk].reshape(-1)


def _drop_ball_scratch() -> None:
    """Discard the shared mask (it may hold stale bits after an error)."""
    global _ball_visited
    _ball_visited = None


#: Byte budget of one block of the bitset kernel's ball-XOR lookups
#: (:meth:`_BitsetBalls.level_xors`): pending balls are keyed this many
#: lookup bytes at a time (at least one ball per block).
_BITSET_BLOCK_BYTES = 1 << 20


def _bitset_working_set(n: int, nnz: int, space: int) -> int:
    """Peak bytes the bitset kernel allocates on a view of *n* alive
    verts, *nnz* arcs and *space* verts: the level, the byte table, one
    word row's gather and reduction, the XOR lookup blocks, and the
    compact CSR with its set-up temporaries."""
    words = (n + 63) >> 6
    return (
        8 * words * n
        + 16384 * words
        + 48 * nnz
        + 128 * n
        + 8 * space
        + 3 * _BITSET_BLOCK_BYTES
    )


#: Cost model of :func:`_choose_ball_kernel`: seconds per flat key
#: gathered, per bitset word touched, and the bitset kernel's set-up.
#: Fitted (non-negative least squares on relative error) to 156 timed
#: ball phases on SDGR, SDG, PDG and PDGR views: d = 2 to 8, n = 300 to
#: 1e4, windows [1, 1], [1, 32], [1, 150-300] and the full range, with
#: all, a tenth and a hundredth of the alive verts as sources (2 vCPUs,
#: NumPy 2.4).  Over the 147 phases timed on both kernels, picking by
#: the model took 5 ms longer in total than always picking the faster.
_FLAT_KEY_SECONDS = 2.1e-8
_BITSET_WORD_SECONDS = 5.1e-9
_BITSET_SETUP_SECONDS = 2.0e-4


def _choose_ball_kernel(view: CSRView, sources: int, max_size: int) -> str:
    """``"bitset"`` or ``"flat-key"``: the kernel :meth:`_CSRProbe.ball_phase`
    runs, from the view's size, the source count and the size window.

    The bitset kernel is used only when its working set fits
    :data:`_BALL_SCRATCH_BYTES` and the cost model expects it to win.
    Both kernels record the same stream, so the choice never changes a
    result.  A ball of ``d``-regular growth outgrows the window after
    about ``steps = log(max_size) / log(d)`` radii.  The flat-key kernel
    gathers about ``max_size * d`` keys per source, plus a per-step
    overhead worth about 20 keys; the bitset kernel touches
    ``ceil(n / 64)`` words per vert and arc at each step, plus
    ``8 * ceil(n / 64)`` byte-table lookups per source and radius from
    2 on.
    """
    n = view.n
    nnz = int(view.degrees.sum())
    if n < 2 or nnz == 0:
        return "flat-key"
    if _bitset_working_set(n, nnz, view.space) > _BALL_SCRATCH_BYTES:
        return "flat-key"
    mean_degree = nnz / n
    reach = min(max_size, n)
    steps = math.log(reach) / math.log(max(mean_degree, 1.5)) if reach > 1 else 0.0
    words = (n + 63) >> 6
    flat = _FLAT_KEY_SECONDS * sources * (reach * mean_degree + 20 * (steps + 1))
    bitset = _BITSET_SETUP_SECONDS + _BITSET_WORD_SECONDS * words * (
        steps * (nnz + n) + 8 * sources * max(steps - 1, 0.0)
    )
    return "bitset" if bitset < flat else "flat-key"


class _BitsetBalls:
    """Every alive vert's BFS ball as a bitset, one radius at a time.

    Verts are renumbered to their positions in :attr:`CSRView.alive_verts`
    (``0 .. n-1``), so dead rows cost nothing.  The level is stored
    word-major, ``(ceil(n/64), n)`` little-endian uint64: column ``v``
    holds ``B_r(v)``, word row ``w`` its members ``64w .. 64w+63``.  A
    level step ``B_{r+1}(v) = B_r(v) | OR_{u in N(v)} B_r(u)`` reads
    and writes each word row on its own, so it runs in place, one
    contiguous row at a time: a gather of the row's neighbour words and
    a ``bitwise_or.reduceat`` over the CSR rows.  Ball sizes are column
    popcounts.  (Blocks of several word rows gathered and reduced at
    once ran about 10 % slower than single rows on SDGR d = 8 and SDG
    d = 2 views at n = 2000.)
    """

    def __init__(self, view: CSRView) -> None:
        alive = view.alive_verts
        n = alive.size
        self.n = n
        self.words = (n + 63) >> 6
        self.pos = np.zeros(view.space, dtype=np.int64)
        self.pos[alive] = np.arange(n, dtype=np.int64)
        self.degrees = view.degrees
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        self.indices = self.pos[view.gather_neighbors(alive)]
        self.mix = view.mix[alive]
        # reduceat reads an empty row as its next element: reduce over
        # the verts with neighbours only.
        self.linked = np.nonzero(self.degrees)[0]
        self.starts = self.indptr[self.linked]
        self.isolated = self.linked.size < n
        self.level: np.ndarray | None = None
        self._table: np.ndarray | None = None

    def first_level(self) -> None:
        """Set the level to ``B_1``: each vert and its CSR row."""
        n = self.n
        level = np.zeros((self.words, n), dtype="<u8")
        flat = level.reshape(-1)
        verts = np.arange(n, dtype=np.int64)
        owners = np.repeat(verts, self.degrees)
        members = np.concatenate([verts, self.indices])
        np.bitwise_or.at(
            flat,
            (members >> 6) * n + np.concatenate([verts, owners]),
            np.left_shift(np.uint64(1), (members & 63).astype(np.uint64)),
        )
        self.level = level

    def advance(self, cols: np.ndarray) -> np.ndarray:
        """Advance the level one radius; the new ball sizes of *cols*."""
        sizes = np.zeros(cols.size, dtype=np.int64)
        for row in self.level:
            reach = np.bitwise_or.reduceat(row[self.indices], self.starts)
            if self.isolated:
                row[self.linked] |= reach
            else:
                row |= reach
            sizes += np.bitwise_count(row[cols])
        return sizes

    def closed_row_xors(self, cols: np.ndarray) -> np.ndarray:
        """XOR of ``mix`` over ``B_1`` of each of *cols*."""
        out = self.mix[cols].copy()
        has = np.nonzero(self.degrees[cols])[0]
        if has.size:
            # reduceat reads an empty row as its next element: skip them.
            counts = self.degrees[cols[has]]
            rows = concat_ranges(self.indptr[cols[has]], counts)
            run_start = np.zeros(has.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=run_start[1:])
            out[has] ^= np.bitwise_xor.reduceat(self.mix[self.indices[rows]], run_start)
        return out

    def level_xors(self, cols: np.ndarray) -> np.ndarray:
        """XOR of ``mix`` over the current level's balls of *cols*.

        ``table[j, p]`` holds the XOR of ``mix[8j + i]`` over the bits
        ``i`` set in the byte value ``p``, so a ball's XOR is one lookup
        per byte of its bitset and an XOR-reduce.
        """
        if cols.size == 0:
            return np.empty(0, dtype=np.uint64)
        if self._table is None:
            nbytes = 8 * self.words
            mix = np.zeros(8 * nbytes, dtype=np.uint64)
            mix[: self.n] = self.mix
            mix = mix.reshape(nbytes, 8)
            table = np.zeros((nbytes, 256), dtype=np.uint64)
            for bit in range(8):
                width = 1 << bit
                table[:, width : 2 * width] = table[:, :width] ^ mix[:, bit, None]
            self._table = table
        table = self._table
        nbytes = table.shape[0]
        base = np.arange(nbytes, dtype=np.int64) * 256
        flat_table = table.reshape(-1)
        out = np.empty(cols.size, dtype=np.uint64)
        rows = max(1, _BITSET_BLOCK_BYTES // (8 * nbytes))
        for c0 in range(0, cols.size, rows):
            balls = np.ascontiguousarray(self.level[:, cols[c0 : c0 + rows]].T)
            lookup = flat_table[base + balls.view(np.uint8)]
            out[c0 : c0 + rows] = np.bitwise_xor.reduce(lookup, axis=1)
        return out


@dataclass(frozen=True)
class ExpansionProbe:
    """Outcome of an expansion search.

    Attributes:
        min_ratio: smallest ``|∂out(S)|/|S|`` found (an upper bound on the
            graph's expansion over the probed size window).
        witness_size: ``|S|`` of the minimising set.
        witness: the minimising set itself.
        candidates_checked: number of *distinct* candidate sets evaluated
            (identical candidates — BFS balls from nearby roots often
            coincide — are deduplicated before scoring and count once).
    """

    min_ratio: float
    witness_size: int
    witness: frozenset[int]
    candidates_checked: int


def expansion_of_set(graph: Snapshot | CSRView, subset: Iterable[int]) -> float:
    """Exact expansion ``|∂out(S)|/|S|`` of one concrete subset."""
    view = as_view(graph)
    verts = view.verts_for(set(subset))
    if verts.size == 0:
        raise ValueError("expansion of the empty set is undefined")
    return view.boundary_count(verts) / verts.size


def vertex_expansion_exact(snapshot: Snapshot) -> ExpansionProbe:
    """Exhaustive ``h_out`` for small graphs (``n ≤ 22``)."""
    n = snapshot.num_nodes()
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if n > EXACT_ENUMERATION_LIMIT:
        raise AnalysisError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    nodes = sorted(snapshot.nodes)
    best_ratio = float("inf")
    best_set: tuple[int, ...] = ()
    checked = 0
    for size in range(1, n // 2 + 1):
        for subset in combinations(nodes, size):
            checked += 1
            ratio = len(snapshot.outer_boundary(subset)) / size
            if ratio < best_ratio:
                best_ratio = ratio
                best_set = subset
                if best_ratio == 0.0 and size == 1:
                    # Cannot do worse than an isolated node.
                    return ExpansionProbe(0.0, 1, frozenset(best_set), checked)
    return ExpansionProbe(best_ratio, len(best_set), frozenset(best_set), checked)


# ----------------------------------------------------------------------
# minimum tracking (canonical tie-break)
# ----------------------------------------------------------------------


class _BestCandidate:
    """Tracks the minimising candidate under the canonical tie-break.

    Candidates are compared on ``(ratio, size, sorted id tuple)``, which
    makes the winner independent of evaluation order — the property that
    lets the vectorized sweeps batch candidates in any schedule (and the
    incremental plane replay cached ones) while producing the identical
    witness.  ``members_fn`` is only invoked when a tie on ``(ratio,
    size)`` needs the ids, or when :attr:`members` is read, so a sweep
    whose minimum keeps improving (the greedy growth) never materialises
    a set it later beats; it must therefore close over data that no
    later candidate mutates.
    """

    def __init__(self) -> None:
        self.ratio = float("inf")
        self.size = 0
        self._members: tuple[int, ...] = ()
        self._members_fn: Callable[[], Iterable[int]] | None = None

    @property
    def members(self) -> tuple[int, ...]:
        """Sorted ids of the current minimiser."""
        if self._members_fn is not None:
            self._members = tuple(self._members_fn())
            self._members_fn = None
        return self._members

    def offer(
        self,
        ratio: float,
        size: int,
        members_fn: Callable[[], Iterable[int]],
    ) -> None:
        if ratio > self.ratio:
            return
        if ratio < self.ratio or size < self.size:
            self.ratio, self.size, self._members_fn = ratio, size, members_fn
            return
        if size > self.size:
            return
        members = tuple(members_fn())
        if members < self.members:
            self._members, self._members_fn = members, None


# ----------------------------------------------------------------------
# probe entry points
# ----------------------------------------------------------------------


def adversarial_expansion_upper_bound(
    graph: Snapshot | CSRView,
    seed: SeedLike = None,
    num_random_sets: int = 200,
    greedy_restarts: int = 8,
    min_size: int = 1,
    max_size: int | None = None,
) -> ExpansionProbe:
    """Adversarial upper bound on ``h_out`` over sizes in [min_size, max_size].

    Candidate portfolio (every distinct candidate within the size window
    is scored once):

    1. all singletons (equivalently the minimum degree) and each node's
       closed neighbourhood;
    2. BFS balls around every node, all radii until the ball exceeds the
       window;
    3. greedy growth: starting from the lowest-``(degree, id)`` seeds,
       repeatedly absorb the boundary vertex that minimises the resulting
       boundary — the standard local-search heuristic for sparse cuts;
    4. uniformly random sets of random sizes in the window.

    Phases 1 and 2 run as one multi-source BFS sweep (the radius-0 ball
    is the singleton, radius 1 the closed neighbourhood).  A
    :class:`Snapshot` argument is probed through its memoized view.
    """
    view = as_view(graph)
    n = view.n
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    min_size = max(1, min_size)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    probe = _CSRProbe(view, min_size, max_size)
    probe.ball_phase()
    probe.score_recorded(*probe.recorder.entries())
    probe.greedy_phase(greedy_restarts)
    probe.random_phase(rng, num_random_sets)
    return probe.result()


def probe_network_expansion(
    network: "DynamicNetwork",
    seed: SeedLike = None,
    num_random_sets: int = 200,
    greedy_restarts: int = 8,
    min_size: int = 1,
    max_size: int | None = None,
) -> ExpansionProbe:
    """Adversarial expansion probe of a live network (CSR fast path).

    Exports the topology backend's state as a zero-copy
    :class:`~repro.core.csr.CSRView` and runs the portfolio on it; the
    result equals probing ``network.snapshot()``, minus the dict freeze.
    """
    view = network.state.csr_view(network.now)
    return adversarial_expansion_upper_bound(
        view,
        seed=seed,
        num_random_sets=num_random_sets,
        greedy_restarts=greedy_restarts,
        min_size=min_size,
        max_size=max_size,
    )


def large_set_expansion_probe(
    graph: Snapshot | CSRView,
    min_size: int,
    max_size: int | None = None,
    seed: SeedLike = None,
    num_random_sets: int = 200,
) -> ExpansionProbe:
    """Adversarial probe restricted to the large-set window of Lemmas 3.6/4.11.

    Adds the age-extreme candidates that stress models without
    regeneration: the ``k`` oldest nodes tend to have lost their out-edges,
    the ``k`` youngest have received few in-edges.  Accepts a
    :class:`Snapshot` or a :class:`~repro.core.csr.CSRView`.
    """
    view = as_view(graph)
    n = view.n
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    min_size = max(1, min_size)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    probe = _CSRProbe(view, min_size, max_size)
    probe.extreme_phase(_large_set_sizes(min_size, max_size))
    probe.random_phase(rng, num_random_sets)
    probe.greedy_phase(4)
    return probe.result()


def _large_set_sizes(min_size: int, max_size: int) -> list[int]:
    """The probed sizes of the large-set portfolio."""
    return sorted(
        {min_size, max_size, (min_size + max_size) // 2}
        | {int(s) for s in np.linspace(min_size, max_size, num=8)}
    )


# ----------------------------------------------------------------------
# the vectorized portfolio
# ----------------------------------------------------------------------


class BallRecorder:
    """Raw ball-phase candidate stream: the one way balls get scored.

    Every :class:`_CSRProbe` carries one; the ball kernels append every
    in-window ``(root id, radius, |B_r|, xor, ratio)`` entry — *before*
    dedupe, because deduplication context changes between observation
    windows — plus each root's final kept-ball radius.  A cold probe
    scores the stream with :meth:`_CSRProbe.score_recorded` right after
    the ball phase.  The incremental plane
    (:mod:`repro.analysis.incremental`) caches the entries per root,
    replays those of balls churn did not reach, and scores the merged
    stream the same way, reproducing the cold probe bit for bit.
    """

    def __init__(self) -> None:
        self._roots: list[np.ndarray] = []
        self._radii: list[np.ndarray] = []
        self._e_root: list[np.ndarray] = []
        self._e_radius: list[np.ndarray] = []
        self._e_size: list[np.ndarray] = []
        self._e_xor: list[np.ndarray] = []
        self._e_ratio: list[np.ndarray] = []

    def add_entries(
        self,
        roots: np.ndarray,
        radii: np.ndarray,
        sizes: np.ndarray,
        xors: np.ndarray,
        ratios: np.ndarray,
    ) -> None:
        """Record one radius step's pending candidates (pre-dedupe)."""
        self._e_root.append(np.asarray(roots, dtype=np.int64))
        self._e_radius.append(np.asarray(radii, dtype=np.int64))
        self._e_size.append(np.asarray(sizes, dtype=np.int64))
        self._e_xor.append(np.asarray(xors, dtype=np.uint64))
        self._e_ratio.append(np.asarray(ratios, dtype=np.float64))

    def add_roots(self, roots: np.ndarray, kept_radii: np.ndarray) -> None:
        """Record a chunk's roots with their final kept-ball radii."""
        self._roots.append(np.asarray(roots, dtype=np.int64))
        self._radii.append(np.asarray(kept_radii, dtype=np.int64))

    @staticmethod
    def _concat(parts: list[np.ndarray], dtype: type) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        return np.concatenate(parts)

    def roots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(root ids, final kept radii)`` across all recorded chunks."""
        return (
            self._concat(self._roots, np.int64),
            self._concat(self._radii, np.int64),
        )

    def entries(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(root, radius, size, xor, ratio)`` entry arrays, concatenated."""
        return (
            self._concat(self._e_root, np.int64),
            self._concat(self._e_radius, np.int64),
            self._concat(self._e_size, np.int64),
            self._concat(self._e_xor, np.uint64),
            self._concat(self._e_ratio, np.float64),
        )


class _CSRProbe:
    """One probe run on a :class:`CSRView`: phases + dedupe/minimum.

    Every candidate inside the size window is keyed with
    :func:`~repro.core.csr.candidate_key`, scored once, and offered to a
    :class:`_BestCandidate`; candidates arrive from vectorized sweeps
    rather than per-set Python evaluation.
    """

    def __init__(
        self,
        view: CSRView,
        min_size: int,
        max_size: int,
        recorder: BallRecorder | None = None,
    ) -> None:
        self.view = view
        self.min_size = min_size
        self.max_size = max_size
        self.best = _BestCandidate()
        self.seen: set[int] = set()
        self.checked = 0
        # The ball kernels record their candidate stream here;
        # score_recorded() later adds its deduplicated keys to `seen`, so
        # the greedy/random phases skip every ball they re-find.
        self.recorder = BallRecorder() if recorder is None else recorder
        # Which kernel the last ball_phase() ran (diagnostics only).
        self.ball_kernel: str | None = None

    def _register(self, key: int) -> bool:
        """Dedupe one candidate key; True when it is fresh (and counted)."""
        if key in self.seen:
            return False
        self.seen.add(key)
        self.checked += 1
        return True

    def result(self) -> ExpansionProbe:
        if self.checked == 0:
            raise AnalysisError("no candidate set fell inside the size window")
        return ExpansionProbe(
            min_ratio=self.best.ratio,
            witness_size=self.best.size,
            witness=frozenset(self.best.members),
            candidates_checked=self.checked,
        )

    # -- explicit candidates (random sets, age/degree prefixes) --------

    def consider_sets(self, sets: list[np.ndarray]) -> None:
        """Score explicit candidates (each of distinct verts) in one pass.

        Keys are registered in list order, so dedupe and ``checked`` are
        those of scoring the sets one at a time; the fresh in-window
        sets' boundaries then come from one
        :meth:`~repro.core.csr.CSRView.boundary_counts` call.
        """
        view = self.view
        fresh = []
        for verts in sets:
            size = int(verts.size)
            if not (self.min_size <= size <= self.max_size):
                continue
            xor = int(np.bitwise_xor.reduce(view.mix[verts]))
            if self._register(candidate_key(size, xor)):
                fresh.append(verts)
        for verts, boundary in zip(fresh, view.boundary_counts(fresh).tolist()):
            self.best.offer(
                boundary / verts.size,
                int(verts.size),
                lambda verts=verts: view.ids_sorted(verts),
            )

    # -- multi-source BFS balls (covers singletons + neighbourhoods) ---

    def ball_phase(self, sources: np.ndarray | None = None) -> None:
        """Balls of every radius around every node.

        Covers portfolio phases 1+2: the radius-0 ball is the
        singleton, radius 1 the closed neighbourhood.  Each ball ``B_r``
        is scored with ``|∂B_r| = |shell_{r+1}|`` — the next BFS shell
        *is* the outer boundary — so scoring costs nothing beyond the
        BFS itself.  Every source runs the same state machine: its ball
        is recorded while its size lies in the window, and it stops
        growing once the ball reaches ``max_size`` (one more shell
        scores a ball of exactly that size).

        Two kernels compute the shells; :func:`_choose_ball_kernel`
        picks one from the view's size, the source count and the window,
        and :attr:`ball_kernel` says which ran:

        * ``"flat-key"`` — sources advance in lockstep chunks over one
          shared, selectively-cleared ``visited`` mask; the chunk
          shrinks at large vert spaces so the mask stays within
          :data:`_BALL_SCRATCH_BYTES`; :data:`_BALL_CHUNK` says why 256.
          Each shell step works on flat keys ``row*space + vert`` (int32
          while they fit, see :func:`~repro.core.csr.flat_key_dtype`):
          one gather builds them, one sort dedupes them, and a
          ``searchsorted`` against the row bounds counts each source's
          shell.  The radius-0 shell is the source's own CSR row,
          already distinct, so that step skips the sort.  Its cost
          grows with the sources and the window, not the view, so it
          serves large views, small windows on small views, and the
          incremental plane's few invalidated roots.
        * ``"bitset"`` — every alive vert's ball is a bitset row
          (:class:`_BitsetBalls`), and one OR-reduce over the CSR per
          radius grows them all; shell sizes are popcount differences.
          It needs no sort and no per-root mask, but a level costs
          ``n**2 / 8`` bytes, so it runs only where that fits
          :data:`_BALL_SCRATCH_BYTES`.

        The phase only *records* the candidate stream (into
        :attr:`recorder`), in the same order under either kernel:
        chunk by chunk of ``min(_BALL_CHUNK, sources, budget rows)``
        sources, each chunk radius by radius, then the chunk's roots.
        :meth:`score_recorded` scores it afterwards.  Chunking cannot
        change results: dedupe keys and the tie-break are
        evaluation-order independent.

        *sources* defaults to every alive vert; the incremental plane
        passes only the roots whose cached balls churn invalidated.
        """
        view = self.view
        if sources is None:
            sources = view.alive_verts
        if sources.size == 0:
            return
        space = max(view.space, 1)
        budget_rows = max(_BALL_SCRATCH_BYTES // space, 16)
        chunk = int(min(_BALL_CHUNK, sources.size, budget_rows))
        self.ball_kernel = _choose_ball_kernel(view, sources.size, self.max_size)
        try:
            if self.ball_kernel == "bitset":
                self._ball_bitset(sources, chunk)
                return
            visited = _ball_scratch(chunk, view.space)
            for start in range(0, sources.size, chunk):
                self._ball_chunk(sources[start : start + chunk], visited)
        except BaseException:
            # The mask may hold uncleared bits mid-sweep; never reuse it.
            _drop_ball_scratch()
            raise

    def _ball_bitset(self, sources: np.ndarray, chunk: int) -> None:
        """The bitset kernel: :meth:`_ball_chunk`'s state machine run on
        every source at once, its stream emitted in chunk order."""
        view = self.view
        balls = _BitsetBalls(view)
        cols = balls.pos[sources]
        count = sources.size
        ball_size = np.ones(count, dtype=np.int64)
        pend_active = np.full(count, self.min_size <= 1 <= self.max_size)
        grow = np.full(count, 1 < self.max_size)
        kept_radius = np.zeros(count, dtype=np.int64)
        steps = []  # per radius: (pending rows, sizes, xors, ratios)
        radius = 0
        while True:
            pending = np.nonzero(pend_active)[0]
            # The pending balls are B_radius: key them before the level
            # moves on.
            if radius == 0:
                xors = balls.mix[cols[pending]]
                shell_count = balls.degrees[cols]
            else:
                if radius == 1:
                    xors = balls.closed_row_xors(cols[pending])
                    balls.first_level()
                else:
                    xors = balls.level_xors(cols[pending])
                shell_count = balls.advance(cols) - ball_size
            steps.append(
                (
                    pending,
                    ball_size[pending],
                    xors,
                    shell_count[pending] / ball_size[pending],
                )
            )
            growing = grow & (shell_count > 0)
            new_size = ball_size + shell_count
            pend_active = growing & (new_size >= self.min_size) & (
                new_size <= self.max_size
            )
            grow = growing & (new_size < self.max_size)
            keep = pend_active | grow
            if not keep.any():
                break
            ball_size = np.where(keep, new_size, ball_size)
            radius += 1
            kept_radius[keep] = radius

        recorder = self.recorder
        root_ids = view.vert_ids[sources]
        for start in range(0, count, chunk):
            stop = start + chunk
            for step, (pending, sizes, xors, ratios) in enumerate(steps):
                lo, hi = np.searchsorted(pending, (start, stop))
                if lo < hi:
                    recorder.add_entries(
                        root_ids[pending[lo:hi]],
                        np.full(hi - lo, step, dtype=np.int64),
                        sizes[lo:hi],
                        xors[lo:hi],
                        ratios[lo:hi],
                    )
            recorder.add_roots(root_ids[start:stop], kept_radius[start:stop])

    def _ball_chunk(self, src_verts: np.ndarray, visited: np.ndarray) -> None:
        view = self.view
        space = view.space
        indptr, indices, mixv = view.indptr, view.indices, view.mix
        recorder = self.recorder
        count = src_verts.size
        row_bounds = np.arange(count + 1, dtype=flat_key_dtype(count, space))
        row_bounds *= space

        frontier_base = row_bounds[:-1]
        frontier_vert = src_verts
        marks = [frontier_base + src_verts]
        visited[marks[0]] = True
        ball_size = np.ones(count, dtype=np.int64)
        ball_xor = mixv[src_verts].copy()
        # Pending candidate per source: the current ball, awaiting its
        # boundary count from the next shell.  Radius-0 balls (the
        # singletons) start pending whenever size 1 is inside the window.
        pend_active = np.full(count, self.min_size <= 1 <= self.max_size)
        pend_size = ball_size.copy()
        pend_xor = ball_xor.copy()
        pend_radius = np.zeros(count, dtype=np.int64)
        grow = np.full(count, 1 < self.max_size)
        kept_radius = np.zeros(count, dtype=np.int64)
        radius = 0

        while frontier_vert.size:
            # Next shell: unvisited distinct neighbours, per source, as
            # flat keys row*space + vert (sorted from radius 1 on).
            starts = indptr[frontier_vert]
            degrees = indptr[frontier_vert + 1] - starts
            keys = np.repeat(frontier_base, degrees)
            keys += indices[concat_ranges(starts, degrees)]
            keys = keys[~visited[keys]]
            if radius:
                keys = sorted_distinct(keys)
            # At radius 0 each row's shell is its source's own CSR row,
            # already distinct by the CSRView contract, so the visited
            # filter alone yields it.  Its keys are unsorted within a row,
            # but rows come in ascending order, so ``key < row bound`` is
            # still monotone along the array and the row search holds.
            row_start = np.searchsorted(keys, row_bounds)
            shell_count = np.diff(row_start)

            # Record pending balls: ratio = |shell_{r+1}| / |B_r|.
            pending = np.nonzero(pend_active)[0]
            if pending.size:
                recorder.add_entries(
                    view.vert_ids[src_verts[pending]],
                    pend_radius[pending],
                    pend_size[pending],
                    pend_xor[pending],
                    shell_count[pending] / pend_size[pending],
                )

            # Continuation: a source keeps its frontier while it still
            # grows (|B| < max) or the grown ball needs one more shell
            # for scoring (|B_{r+1}| == max exactly).  Every kept source
            # has a non-empty shell.
            growing = grow & (shell_count > 0)
            new_size = ball_size + shell_count
            pend_active = growing & (new_size >= self.min_size) & (
                new_size <= self.max_size
            )
            grow = growing & (new_size < self.max_size)
            keep = pend_active | grow
            kept_rows = np.nonzero(keep)[0]
            if kept_rows.size == 0:
                break
            kept_count = shell_count[kept_rows]
            if kept_rows.size < count:
                keys = keys[concat_ranges(row_start[kept_rows], kept_count)]
            visited[keys] = True
            marks.append(keys)
            frontier_base = np.repeat(row_bounds[kept_rows], kept_count)
            frontier_vert = keys - frontier_base
            # Kept rows' shells are contiguous, non-empty runs of keys.
            run_start = np.zeros(kept_rows.size, dtype=np.int64)
            np.cumsum(kept_count[:-1], out=run_start[1:])
            ball_xor[kept_rows] ^= np.bitwise_xor.reduceat(
                mixv[frontier_vert], run_start
            )
            ball_size[kept_rows] += kept_count
            radius += 1
            kept_radius[kept_rows] = radius
            pend_size = np.where(pend_active, ball_size, pend_size)
            pend_xor = np.where(pend_active, ball_xor, pend_xor)
            pend_radius = np.where(pend_active, radius, pend_radius)

        recorder.add_roots(view.vert_ids[src_verts], kept_radius)
        for mark in marks:
            visited[mark] = False

    def _ball_members(self, source_vert: int, radius: int) -> np.ndarray:
        """Recompute one ball's member verts (only for contending balls)."""
        view = self.view
        ball = {int(source_vert)}
        frontier = [int(source_vert)]
        for _ in range(radius):
            shell: list[int] = []
            for v in frontier:
                for w in view.neighbors_of_vert(v).tolist():
                    if w not in ball:
                        ball.add(w)
                        shell.append(w)
            if not shell:
                break
            frontier = shell
        return np.fromiter(ball, dtype=np.int64, count=len(ball))

    def score_recorded(
        self,
        roots: np.ndarray,
        radii: np.ndarray,
        sizes: np.ndarray,
        xors: np.ndarray,
        ratios: np.ndarray,
    ) -> None:
        """Score a ball-candidate stream in one vectorized pass.

        The stream is what :meth:`ball_phase` recorded — on a cold probe
        the whole of it, in the incremental plane freshly recorded
        entries merged with entries replayed from a previous window's
        cache, in arbitrary order.  Dedupe keys, the distinct-candidate
        count, and the ``(ratio, size, members)`` tie-break are all
        evaluation-order independent, so both give the same probe.  Must
        run before the greedy/random phases (their dedupe consults the
        registered ball keys); only candidates achieving the stream's
        minimal ``(ratio, size)`` are offered, with members recomputed
        by a per-root BFS.
        """
        if roots.size == 0:
            return
        keys = candidate_key_array(sizes.astype(np.uint64), xors)
        uniq, first = np.unique(keys, return_index=True)
        self.seen.update(uniq.tolist())
        self.checked += int(uniq.size)
        rep_ratio = ratios[first]
        sel = first[rep_ratio == rep_ratio.min()]
        sel_sizes = sizes[sel]
        sel = sel[sel_sizes == sel_sizes.min()]
        view = self.view
        root_verts = view.alive_verts[np.searchsorted(view.ids, roots[sel])]
        for i, root_vert in zip(sel.tolist(), root_verts.tolist()):
            radius = int(radii[i])
            self.best.offer(
                float(ratios[i]),
                int(sizes[i]),
                lambda root_vert=root_vert, radius=radius: view.ids_sorted(
                    self._ball_members(root_vert, radius)
                ),
            )

    # -- incremental greedy boundary-minimising growth -----------------

    def greedy_phase(self, restarts: int) -> None:
        """Greedy growth from the lowest-``(degree, id)`` seeds.

        Each step absorbs the boundary vert with the fewest neighbours
        outside the set and its boundary (``new_out``, ties on node id)
        and offers the grown set.  ``new_out`` is kept up to date rather
        than regathered: a vert entering the boundary counts its outside
        neighbours once, and each boundary vert adjacent to it loses one.
        A heap with lazy deletion yields the ``(new_out, id)`` minimiser,
        so one restart costs O(m log m) instead of a boundary regather
        per absorption.
        """
        view = self.view
        order = np.lexsort((view.ids, view.degrees))
        seeds = view.alive_verts[order[:restarts]]
        for seed_vert in seeds.tolist():
            self._greedy_grow_csr(seed_vert)

    def _greedy_grow_csr(self, seed_vert: int) -> None:
        view = self.view
        indptr, indices = view.indptr, view.indices
        mixv, vert_ids = view.mix, view.vert_ids
        # Per-vert state: outside, boundary, entering (this step), member.
        state = bytearray(view.space)
        outside, boundary, entering, member = 0, 1, 2, 3
        new_out: dict[int, int] = {}
        heap: list[tuple[int, int, int]] = []
        members = [seed_vert]
        size = 1
        xor = int(mixv[seed_vert])
        bsize = 0
        vert = seed_vert
        while True:
            state[vert] = member
            fresh = [
                w
                for w in indices[indptr[vert] : indptr[vert + 1]].tolist()
                if state[w] == outside
            ]
            for w in fresh:
                state[w] = entering
            bsize += len(fresh)
            lowered = set()
            for w in fresh:
                out = 0
                for x in indices[indptr[w] : indptr[w + 1]].tolist():
                    mark = state[x]
                    if mark == outside:
                        out += 1
                    elif mark == boundary:
                        new_out[x] -= 1
                        lowered.add(x)
                new_out[w] = out
            for w in fresh:
                state[w] = boundary
                heapq.heappush(heap, (new_out[w], int(vert_ids[w]), w))
            for x in lowered:
                heapq.heappush(heap, (new_out[x], int(vert_ids[x]), x))
            self._consider_tracked(size, xor, bsize, members)
            if size >= self.max_size or not bsize:
                return
            while True:
                out, _, vert = heapq.heappop(heap)
                if state[vert] == boundary and new_out[vert] == out:
                    break
            members.append(vert)
            size += 1
            bsize -= 1
            xor ^= int(mixv[vert])

    def _consider_tracked(
        self, size: int, xor: int, boundary_size: int, members: list[int]
    ) -> None:
        """Score a greedy prefix ``members[:size]`` (boundary size known)."""
        if not (self.min_size <= size <= self.max_size):
            return
        if not self._register(candidate_key(size, xor)):
            return
        self.best.offer(
            boundary_size / size,
            size,
            lambda: self.view.ids_sorted(np.asarray(members[:size])),
        )

    # -- batched random sets -------------------------------------------

    def random_phase(self, rng: np.random.Generator, count: int) -> None:
        """Uniformly random sets (index draws over the ascending-id node
        order, so RNG consumption is backend-independent).

        Every set is drawn first, with the same generator calls in the
        same order as drawing and scoring them one by one, and then the
        whole batch is scored in one pass.
        """
        view = self.view
        n = view.n
        sets = []
        for _ in range(count):
            size = int(rng.integers(self.min_size, self.max_size + 1))
            sets.append(view.alive_verts[rng.choice(n, size=size, replace=False)])
        self.consider_sets(sets)

    # -- age/degree extreme prefixes (large-set portfolio) -------------

    def extreme_phase(self, sizes: list[int]) -> None:
        view = self.view
        ages = view.time - view.birth[view.alive_verts]
        by_age = view.alive_verts[np.lexsort((view.ids, ages))]
        by_degree = view.alive_verts[np.lexsort((view.ids, view.degrees))]
        sets = []
        for size in sizes:
            sets += [by_age[:size], by_age[-size:], by_degree[:size]]
        self.consider_sets(sets)  # youngest, oldest, lowest degree
