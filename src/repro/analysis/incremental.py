"""Incremental churn-aware expansion probing: BFS-ball reuse across windows.

Between dense observation windows only a small churn delta touches the
graph, yet the cold expansion portfolio
(:func:`~repro.analysis.expansion.adversarial_expansion_upper_bound`)
recomputes every BFS ball from scratch.  :class:`ProbeCache` removes that
redundancy without changing a single bit of the result:

* the backend's mutation tracker
  (:meth:`~repro.core.backend.GraphBackend.track_mutations` /
  :meth:`~repro.core.backend.GraphBackend.drain_touched`) supplies the
  *dirty set* — every node whose incident topology changed since the
  last probe;
* a cached root's ball trajectory is **valid** when the new graph holds
  no dirty node within its final kept-ball radius.  Validity is decided
  by one multi-source BFS from the dirty set: if some ball member were
  dirty, the old root→member path's prefix up to the *first* dirty node
  consists of edges between non-dirty nodes — all unchanged and alive —
  so the dirty set stays within reach in the new graph too (dead nodes
  cannot be a first dirty hop: every former neighbour of a dead node is
  itself dirty).  Valid balls are provably unchanged, shells included,
  because BFS layers depend only on members' incident edges;
* valid roots replay their cached ``(radius, size, xor, ratio)``
  entries into the candidate stream; invalidated, newborn, and
  never-seen roots re-run the recording ball kernel
  (:class:`~repro.analysis.expansion.BallRecorder`); the merged stream
  is scored by :meth:`~repro.analysis.expansion._CSRProbe.score_recorded`
  and the greedy/random phases run fresh with identical RNG consumption.

Entries are cached *pre-dedupe* (the dedupe context changes as other
balls churn), and every scoring primitive — the
:func:`~repro.core.csr.candidate_key` dedupe, the distinct-candidate
count, the ``(ratio, |S|, sorted ids)`` tie-break — is evaluation-order
independent, so probe minima, witnesses, and ``candidates_checked`` are
bit-identical to a cold recompute (the parity suite and a hypothesis
property test assert this on both backends).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.expansion import ExpansionProbe, _CSRProbe
from repro.core.backend import GraphBackend
from repro.core.csr import CSRView
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng


class ProbeCache:
    """Window-to-window BFS-ball cache for the expansion portfolio.

    Args:
        backend: the live topology backend to track (mutation tracking
            is enabled at construction; every probe drains the touched
            ids accumulated since the previous probe).
        num_random_sets: random candidates per probe (phase 4).
        greedy_restarts: greedy growth seeds per probe (phase 3).
        min_size: smallest candidate size scored.
        max_size: largest candidate size scored (``None`` = ``n // 2``,
            re-resolved per window; a changed effective window flushes
            the cache).

    Use one cache per (backend, portfolio-parameter) combination and
    call :meth:`probe` once per observation window.  ``last_stats``
    reports the replay/recompute split of the most recent probe and,
    under ``"ball_kernel"``, which ball kernel recomputed the fresh
    roots (``None`` when every root replayed); it is a diagnostic and
    never part of a probe's result.
    """

    def __init__(
        self,
        backend: GraphBackend,
        num_random_sets: int = 200,
        greedy_restarts: int = 8,
        min_size: int = 1,
        max_size: int | None = None,
    ) -> None:
        self.backend = backend
        self.num_random_sets = int(num_random_sets)
        self.greedy_restarts = int(greedy_restarts)
        self.min_size = int(min_size)
        self.max_size = None if max_size is None else int(max_size)
        self.last_stats: dict[str, int | str | None] = {}
        backend.track_mutations()
        # Drain anything recorded before this cache existed: the first
        # probe is cold regardless.
        backend.drain_touched()
        self._window: tuple[int, int] | None = None
        self.flush()

    # ------------------------------------------------------------------
    # cache arena (roots sorted ascending; entries grouped per root)
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Drop every cached ball (the next probe recomputes cold)."""
        self._roots = np.empty(0, dtype=np.int64)
        self._radii = np.empty(0, dtype=np.int64)
        self._eoff = np.zeros(1, dtype=np.int64)
        self._e_root = np.empty(0, dtype=np.int64)
        self._e_radius = np.empty(0, dtype=np.int64)
        self._e_size = np.empty(0, dtype=np.int64)
        self._e_xor = np.empty(0, dtype=np.uint64)
        self._e_ratio = np.empty(0, dtype=np.float64)

    def _store(
        self,
        roots: np.ndarray,
        radii: np.ndarray,
        entries: tuple[np.ndarray, ...],
    ) -> None:
        order = np.argsort(roots)
        self._roots = roots[order]
        self._radii = radii[order]
        e_root, e_radius, e_size, e_xor, e_ratio = entries
        eorder = np.argsort(e_root, kind="stable")
        self._e_root = e_root[eorder]
        self._e_radius = e_radius[eorder]
        self._e_size = e_size[eorder]
        self._e_xor = e_xor[eorder]
        self._e_ratio = e_ratio[eorder]
        self._eoff = np.concatenate(
            [
                np.searchsorted(self._e_root, self._roots),
                np.asarray([self._e_root.size], dtype=np.int64),
            ]
        )

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _dirty_distances(
        self, view: CSRView, dirty: set[int], r_max: int
    ) -> np.ndarray:
        """Hop distance from the alive dirty set, −1 beyond ``r_max``."""
        dist = np.full(view.space, -1, dtype=np.int64)
        ids = view.ids
        if ids.size == 0 or not dirty:
            return dist
        dirty_ids = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        dirty_ids.sort()
        pos = np.searchsorted(ids, dirty_ids)
        in_range = pos < ids.size
        pos = pos[in_range]
        frontier = view.alive_verts[pos[ids[pos] == dirty_ids[in_range]]]
        if frontier.size == 0:
            return dist
        dist[frontier] = 0
        level = 0
        while frontier.size and level < r_max:
            flat = view.gather_neighbors(frontier)
            if flat.size == 0:
                break
            flat = np.unique(flat)
            flat = flat[dist[flat] < 0]
            dist[flat] = level + 1
            frontier = flat
            level += 1
        return dist

    # ------------------------------------------------------------------
    # the probe
    # ------------------------------------------------------------------

    def probe(self, view: CSRView, seed: SeedLike = None) -> ExpansionProbe:
        """Probe *view*, reusing every ball churn did not reach.

        Bit-identical to
        ``adversarial_expansion_upper_bound(view, seed, ...)`` with this
        cache's portfolio parameters.
        """
        n = view.n
        if n < 2:
            raise AnalysisError("vertex expansion needs at least 2 nodes")
        max_size = n // 2 if self.max_size is None else min(self.max_size, n // 2)
        if self.min_size > max_size:
            raise AnalysisError(
                f"empty size window [{self.min_size}, {max_size}]"
            )
        window = (self.min_size, max_size)
        dirty = self.backend.drain_touched()
        if window != self._window:
            # A different effective size window changes every ball's
            # growth trajectory; start over.
            self._window = window
            self.flush()

        ids = view.ids  # alive node ids, ascending
        cached = self._roots
        if cached.size:
            # Cached roots still alive keep ascending positions in ids.
            pos = np.searchsorted(ids, cached)
            pos_clip = np.minimum(pos, max(ids.size - 1, 0))
            alive = ids[pos_clip] == cached
            r_alive = self._radii[alive]
            r_max = int(r_alive.max()) if r_alive.size else 0
            dist = self._dirty_distances(view, dirty, r_max)
            root_verts = view.alive_verts[pos_clip]
            reached = (dist[root_verts] >= 0) & (
                dist[root_verts] <= self._radii
            )
            valid = alive & ~reached
        else:
            valid = np.zeros(0, dtype=bool)

        valid_roots = cached[valid]
        fresh_ids = np.setdiff1d(ids, valid_roots, assume_unique=True)
        fresh_verts = view.alive_verts[np.searchsorted(ids, fresh_ids)]

        probe = _CSRProbe(view, self.min_size, max_size)
        probe.ball_phase(fresh_verts)

        new_roots, new_radii = probe.recorder.roots()
        new_entries = probe.recorder.entries()
        keep_entry = np.repeat(valid, np.diff(self._eoff))
        merged = tuple(
            np.concatenate([old[keep_entry], new])
            for old, new in zip(
                (
                    self._e_root,
                    self._e_radius,
                    self._e_size,
                    self._e_xor,
                    self._e_ratio,
                ),
                new_entries,
            )
        )
        probe.score_recorded(*merged)
        probe.greedy_phase(self.greedy_restarts)
        probe.random_phase(make_rng(seed), self.num_random_sets)
        result = probe.result()

        self._store(
            np.concatenate([valid_roots, new_roots]),
            np.concatenate([self._radii[valid], new_radii]),
            merged,
        )
        self.last_stats = {
            "alive": int(n),
            "dirty": len(dirty),
            "replayed": int(valid_roots.size),
            "recomputed": int(fresh_ids.size),
            "ball_kernel": probe.ball_kernel,
        }
        return result
