"""Set-based reference analyses on a frozen :class:`Snapshot`.

These are the dict-of-frozensets implementations the CSR analyses in
``repro.analysis`` replaced, kept verbatim as oracles:

* the adversarial and large-set expansion portfolios
  (:func:`adversarial_expansion_upper_bound`,
  :func:`large_set_expansion_probe`), scored by :class:`_MinTracker`
  with the production tie-break and candidate hashing, so minima,
  witnesses and ``candidates_checked`` must match the CSR probe exactly;
* per-node BFS distances, eccentricities, giant-component diameters and
  path samples;
* λ₂ of the normalized Laplacian on the giant, assembled from the
  adjacency dicts;
* edge keys for the Jaccard comparison;
* the degree summary and isolated count (used by the analysis
  benchmark's reference plane; the tests compare those censuses
  against ``Snapshot`` methods directly).

Giant-component ties break on the smallest node id, the rule
:func:`repro.analysis.components.giant_verts` implements.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.analysis.degrees import DegreeSummary
from repro.analysis.expansion import (
    ExpansionProbe,
    _BestCandidate,
    _large_set_sizes,
)
from repro.analysis.spectral import CheegerBounds, _lambda2_of_adjacency
from repro.core.csr import candidate_key, mix64
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng

# ----------------------------------------------------------------------
# censuses
# ----------------------------------------------------------------------


def degree_summary(snapshot: Snapshot) -> DegreeSummary:
    """Degree summary from the adjacency dict."""
    degrees = np.array(
        [len(nbrs) for nbrs in snapshot.adjacency.values()], dtype=float
    )
    if degrees.size == 0:
        return DegreeSummary(0, 0, 0.0, 0, 0, 0.0)
    return DegreeSummary(
        num_nodes=snapshot.num_nodes(),
        num_edges=snapshot.num_edges(),
        mean_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        min_degree=int(degrees.min()),
        std_degree=float(degrees.std(ddof=1)) if degrees.size > 1 else 0.0,
    )


def count_isolated(snapshot: Snapshot) -> int:
    """Number of degree-0 nodes."""
    return len(snapshot.isolated_nodes())


# ----------------------------------------------------------------------
# expansion portfolio
# ----------------------------------------------------------------------


class _MinTracker:
    """Scores snapshot candidates within a size window (reference path).

    Deduplicates identical candidate sets with the canonical
    :func:`~repro.core.csr.candidate_key` before scoring, so coincident
    BFS balls (or a greedy set re-finding a ball) are evaluated — and
    counted — once.
    """

    def __init__(self, snapshot: Snapshot, min_size: int, max_size: int) -> None:
        self.snapshot = snapshot
        self.min_size = min_size
        self.max_size = max_size
        self.best = _BestCandidate()
        self.seen: set[int] = set()
        self.checked = 0

    def consider(self, subset: Iterable[int]) -> None:
        candidate = set(subset)
        size = len(candidate)
        if not (self.min_size <= size <= self.max_size):
            return
        xor = 0
        for u in candidate:
            xor ^= mix64(u)
        key = candidate_key(size, xor)
        if key in self.seen:
            return
        self.seen.add(key)
        self.checked += 1
        ratio = len(self.snapshot.outer_boundary(candidate)) / size
        self.best.offer(ratio, size, lambda: tuple(sorted(candidate)))

    def result(self) -> ExpansionProbe:
        if self.checked == 0:
            raise AnalysisError("no candidate set fell inside the size window")
        return ExpansionProbe(
            min_ratio=self.best.ratio,
            witness_size=self.best.size,
            witness=frozenset(self.best.members),
            candidates_checked=self.checked,
        )


def adversarial_expansion_upper_bound(
    snapshot: Snapshot,
    seed: SeedLike = None,
    num_random_sets: int = 200,
    greedy_restarts: int = 8,
    min_size: int = 1,
    max_size: int | None = None,
) -> ExpansionProbe:
    """Adversarial upper bound on ``h_out`` over sizes in [min_size, max_size].

    Portfolio: singletons and closed neighbourhoods, BFS balls from
    every node, greedy growth from the lowest-``(degree, id)`` seeds,
    and uniformly random sets.
    """
    n = snapshot.num_nodes()
    if n < 2:
        raise AnalysisError("vertex expansion needs at least 2 nodes")
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    nodes = sorted(snapshot.nodes)  # canonical candidate order
    tracker = _MinTracker(snapshot, min_size, max_size)

    # 1. singletons and closed neighbourhoods.
    for u in nodes:
        tracker.consider({u})
        tracker.consider({u} | set(snapshot.adjacency[u]))

    # 2. BFS balls from every node.
    for u in nodes:
        ball = {u}
        frontier = {u}
        while frontier and len(ball) < max_size:
            next_frontier: set[int] = set()
            for v in frontier:
                for w in snapshot.adjacency[v]:
                    if w not in ball:
                        next_frontier.add(w)
            if not next_frontier:
                break
            ball |= next_frontier
            frontier = next_frontier
            if len(ball) <= max_size:
                tracker.consider(ball)

    # 3. greedy boundary-minimising growth from low-degree seeds (ties on
    # node id, matching the CSR path's vectorized sweep).
    degrees = snapshot.degrees()
    seeds = sorted(nodes, key=lambda u: (degrees[u], u))[:greedy_restarts]
    for seed_node in seeds:
        _greedy_grow(snapshot, seed_node, max_size, tracker)

    # 4. random sets (index draws over the canonical node order).
    for _ in range(num_random_sets):
        size = int(rng.integers(min_size, max_size + 1))
        chosen = rng.choice(len(nodes), size=size, replace=False)
        tracker.consider({nodes[i] for i in chosen})

    return tracker.result()


def large_set_expansion_probe(
    snapshot: Snapshot,
    min_size: int,
    max_size: int | None = None,
    seed: SeedLike = None,
    num_random_sets: int = 200,
) -> ExpansionProbe:
    """Adversarial probe restricted to the large-set window of Lemmas 3.6/4.11.

    Adds the age-extreme candidates (oldest-k, youngest-k) and the
    lowest-degree prefixes.
    """
    n = snapshot.num_nodes()
    if max_size is None:
        max_size = n // 2
    max_size = min(max_size, n // 2)
    min_size = max(1, min_size)
    if min_size > max_size:
        raise AnalysisError(f"empty size window [{min_size}, {max_size}]")
    rng = make_rng(seed)
    tracker = _MinTracker(snapshot, min_size, max_size)

    nodes = sorted(snapshot.nodes)  # canonical candidate order
    by_age = sorted(nodes, key=lambda u: (snapshot.age(u), u))
    degrees = snapshot.degrees()
    by_degree = sorted(nodes, key=lambda u: (degrees[u], u))
    sizes = _large_set_sizes(min_size, max_size)
    for size in sizes:
        tracker.consider(by_age[:size])  # youngest
        tracker.consider(by_age[-size:])  # oldest
        tracker.consider(by_degree[:size])

    for _ in range(num_random_sets):
        size = int(rng.integers(min_size, max_size + 1))
        chosen = rng.choice(len(nodes), size=size, replace=False)
        tracker.consider({nodes[i] for i in chosen})

    # Greedy growth through the window as well.
    for seed_node in by_degree[:4]:
        _greedy_grow(snapshot, seed_node, max_size, tracker)

    return tracker.result()


def _greedy_grow(
    snapshot: Snapshot, seed_node: int, max_size: int, tracker: _MinTracker
) -> None:
    """Grow a set by absorbing the boundary node minimising the new boundary.

    Classic sparse-cut local search: at each step, move the boundary vertex
    whose absorption shrinks (or least grows) the boundary into the set
    (ties on node id).  Scores every intermediate set against the tracker.
    """
    current = {seed_node}
    boundary = set(snapshot.adjacency[seed_node])
    tracker.consider(current)
    while len(current) < max_size and boundary:
        best_key: tuple[int, int] | None = None
        for v in boundary:
            # Absorbing v removes it from the boundary and adds its
            # outside neighbours.
            new_out = sum(
                1
                for w in snapshot.adjacency[v]
                if w not in current and w not in boundary
            )
            key = (new_out, v)
            if best_key is None or key < best_key:
                best_key = key
        assert best_key is not None
        best_vertex = best_key[1]
        current.add(best_vertex)
        boundary.discard(best_vertex)
        for w in snapshot.adjacency[best_vertex]:
            if w not in current:
                boundary.add(w)
        tracker.consider(current)


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------


def bfs_distances(snapshot: Snapshot, source: int) -> dict[int, int]:
    """Hop distances from *source* to every reachable node."""
    if source not in snapshot.nodes:
        raise AnalysisError(f"source {source} not in snapshot")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in snapshot.adjacency[u]:
            if v not in distances:
                distances[v] = distances[u] + 1
                queue.append(v)
    return distances


def eccentricity(snapshot: Snapshot, source: int) -> int:
    """Largest hop distance from *source* within its component."""
    return max(bfs_distances(snapshot, source).values())


def giant_ids(snapshot: Snapshot) -> list[int]:
    """Node ids of the giant component, ascending.

    Among components of maximal size the one containing the smallest
    node id wins.
    """
    components = snapshot.connected_components()
    if not components:
        return []
    top = max(len(c) for c in components)
    giant = min(
        (c for c in components if len(c) == top), key=min
    )
    return sorted(giant)


def giant_component_diameter(
    snapshot: Snapshot, exact_limit: int = 600, seed: SeedLike = None
) -> int:
    """Diameter of the largest component (exact up to *exact_limit* nodes,
    else a double-sweep lower bound from 32 random restarts)."""
    giant = giant_ids(snapshot)
    if not giant:
        raise AnalysisError("empty snapshot has no diameter")
    if len(giant) == 1:
        return 0
    if len(giant) <= exact_limit:
        return max(_component_eccentricity(snapshot, u, giant) for u in giant)
    rng = make_rng(seed)
    best = 0
    for _ in range(32):
        start = giant[int(rng.integers(0, len(giant)))]
        far_node, far_distance = _farthest(snapshot, start)
        best = max(best, far_distance)
        best = max(best, _farthest(snapshot, far_node)[1])
    return best


def _farthest(snapshot: Snapshot, source: int) -> tuple[int, int]:
    """The farthest node from *source* (smallest id on ties) and its
    distance — the double-sweep pivot."""
    distances = bfs_distances(snapshot, source)
    far = max(distances.values())
    return min(u for u, d in distances.items() if d == far), far


def average_shortest_path_sample(
    snapshot: Snapshot, num_sources: int = 16, seed: SeedLike = None
) -> float:
    """Mean hop distance over sampled sources (giant component only)."""
    giant = giant_ids(snapshot)
    if len(giant) < 2:
        raise AnalysisError("need a component with at least 2 nodes")
    rng = make_rng(seed)
    picks = rng.choice(len(giant), size=min(num_sources, len(giant)), replace=False)
    total = 0.0
    count = 0
    for index in picks:
        distances = bfs_distances(snapshot, giant[int(index)])
        total += sum(d for d in distances.values() if d > 0)
        count += len(distances) - 1
    if count == 0:
        raise AnalysisError("no pairs sampled")
    return total / count


def _component_eccentricity(
    snapshot: Snapshot, source: int, component: Iterable[int]
) -> int:
    distances = bfs_distances(snapshot, source)
    return max(distances[v] for v in component)


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------


def normalized_laplacian_lambda2(
    snapshot: Snapshot, on_giant: bool = True
) -> float:
    """λ₂ of the normalized Laplacian, assembled from the adjacency dict."""
    if on_giant:
        nodes = giant_ids(snapshot)
        if not nodes:
            raise AnalysisError("empty graph has no spectral gap")
    else:
        nodes = sorted(snapshot.nodes)
    n = len(nodes)
    if n < 3:
        raise AnalysisError(f"need at least 3 nodes, got {n}")
    index = {u: i for i, u in enumerate(nodes)}
    rows: list[int] = []
    cols: list[int] = []
    node_set = set(nodes)
    for u in nodes:
        for v in snapshot.adjacency[u]:
            if v in node_set:
                rows.append(index[u])
                cols.append(index[v])
    data = np.ones(len(rows), dtype=float)
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return _lambda2_of_adjacency(adjacency)


def cheeger_bounds(snapshot: Snapshot, on_giant: bool = True) -> CheegerBounds:
    """Cheeger sandwich for conductance plus a vertex-expansion lower bound."""
    lam2 = normalized_laplacian_lambda2(snapshot, on_giant=on_giant)
    degrees = [
        len(snapshot.adjacency[u])
        for u in snapshot.nodes
        if snapshot.adjacency[u]
    ]
    d_max = max(degrees) if degrees else 1
    d_min = min(degrees) if degrees else 1
    phi_lower = lam2 / 2.0
    phi_upper = math.sqrt(max(0.0, 2.0 * lam2))
    return CheegerBounds(
        lambda2=lam2,
        conductance_lower=phi_lower,
        conductance_upper=phi_upper,
        vertex_expansion_lower=phi_lower * d_min / d_max,
    )


# ----------------------------------------------------------------------
# temporal
# ----------------------------------------------------------------------


def edge_keys(snapshot: Snapshot) -> np.ndarray:
    """Sorted uint64 keys (``u << 32 | v`` with ``u < v``) of the distinct
    undirected edges."""
    edges = [
        (u << 32) | v
        for u, nbrs in snapshot.adjacency.items()
        for v in nbrs
        if u < v
    ]
    keys = np.asarray(edges, dtype=np.uint64)
    keys.sort()
    return keys


def snapshot_jaccard(a: Snapshot, b: Snapshot) -> float:
    """Jaccard similarity of the two snapshots' edge sets."""
    keys_a = edge_keys(a)
    keys_b = edge_keys(b)
    intersection = np.intersect1d(keys_a, keys_b, assume_unique=True).size
    union = keys_a.size + keys_b.size - intersection
    if union == 0:
        return 1.0
    return intersection / union
