"""Distance structure: diameters and typical path lengths.

Flooding time on a (temporarily) static topology is exactly the source's
eccentricity, so diameters connect the expansion results to the flooding
results; the central-cache baseline [23] explicitly claims an O(log n)
diameter, which EXP-13/EXP-16 verify with these helpers.

Every helper runs a vectorized mask-frontier BFS on a
:class:`~repro.core.csr.CSRView` (zero-copy on the array backend); a
:class:`~repro.core.snapshot.Snapshot` argument is converted once at
entry.  Sources, giant-component selection, random draws, and the
double-sweep far-node choice all follow the canonical ascending node-id
order, so results do not depend on the backend's storage layout.  The
set-based reference these results are checked against lives in the
test suite's oracles.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.components import giant_verts
from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.util.rng import SeedLike, make_rng


def _bfs_levels(view: CSRView, source_vert: int) -> np.ndarray:
    """Hop distance from *source_vert* over the vert space (−1 unreached)."""
    dist = np.full(view.space, -1, dtype=np.int64)
    dist[source_vert] = 0
    frontier = np.asarray([source_vert], dtype=np.int64)
    level = 0
    while frontier.size:
        flat = view.gather_neighbors(frontier)
        if flat.size == 0:
            break
        flat = np.unique(flat)
        flat = flat[dist[flat] < 0]
        dist[flat] = level + 1
        frontier = flat
        level += 1
    return dist


def _source_levels(view: CSRView, source: int) -> np.ndarray:
    """:func:`_bfs_levels` from node id *source* (validated)."""
    try:
        source_vert = view.vert_of(source)
    except KeyError:
        raise AnalysisError(f"source {source} not in snapshot") from None
    return _bfs_levels(view, source_vert)


def bfs_distances(graph: Snapshot | CSRView, source: int) -> dict[int, int]:
    """Hop distances from *source* to every reachable node."""
    view = as_view(graph)
    dist = _source_levels(view, source)
    reached = np.nonzero(dist >= 0)[0]
    return dict(zip(view.vert_ids[reached].tolist(), dist[reached].tolist()))


def eccentricity(graph: Snapshot | CSRView, source: int) -> int:
    """Largest hop distance from *source* within its component."""
    return int(_source_levels(as_view(graph), source).max())


def giant_component_diameter(
    graph: Snapshot | CSRView, exact_limit: int = 600, seed: SeedLike = None
) -> int:
    """Diameter of the largest component.

    Exact (all-pairs via per-node BFS) for components up to *exact_limit*
    nodes; beyond that, a standard double-sweep lower bound refined from
    32 random restarts (tight in practice on expanders).
    """
    view = as_view(graph)
    giant = giant_verts(view)
    if not giant.size:
        raise AnalysisError("empty snapshot has no diameter")
    if giant.size == 1:
        return 0
    if giant.size <= exact_limit:
        return max(int(_bfs_levels(view, v).max()) for v in giant.tolist())
    rng = make_rng(seed)
    best = 0
    for _ in range(32):
        start = int(giant[int(rng.integers(0, giant.size))])
        far_vert, far_distance = _farthest(view, start)
        best = max(best, far_distance)
        best = max(best, _farthest(view, far_vert)[1])
    return best


def _farthest(view: CSRView, source_vert: int) -> tuple[int, int]:
    """The vert farthest from *source_vert* (smallest node id on ties) and
    its distance — the double-sweep pivot, independent of storage rows."""
    dist = _bfs_levels(view, source_vert)
    far = int(dist.max())
    at_max = np.nonzero(dist == far)[0]
    return int(at_max[np.argmin(view.vert_ids[at_max])]), far


def average_shortest_path_sample(
    graph: Snapshot | CSRView, num_sources: int = 16, seed: SeedLike = None
) -> float:
    """Mean hop distance over sampled sources (giant component only)."""
    view = as_view(graph)
    giant = giant_verts(view)
    if giant.size < 2:
        raise AnalysisError("need a component with at least 2 nodes")
    rng = make_rng(seed)
    picks = rng.choice(giant.size, size=min(num_sources, giant.size), replace=False)
    total = 0.0
    count = 0
    for index in picks:
        dist = _bfs_levels(view, int(giant[int(index)]))
        total += int(dist[dist > 0].sum())
        count += int((dist >= 0).sum()) - 1
    if count == 0:
        raise AnalysisError("no pairs sampled")
    return total / count
