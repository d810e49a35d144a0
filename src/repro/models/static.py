"""Static random-graph baselines.

The paper's Appendix B (Lemma B.1) uses the *static d-out graph* — every
node independently picks ``d`` uniform neighbours, edges are undirected —
as the reference point: it is a Θ(1)-expander w.h.p. for every ``d ≥ 3``,
whereas the SDG dynamic model at the same ``d`` has a linear fraction of
isolated nodes.  Erdős–Rényi and random-regular graphs are provided for
additional comparisons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backend import create_backend
from repro.core.snapshot import Snapshot
from repro.errors import ConfigurationError
from repro.util.rng import SeedLike, make_rng

if TYPE_CHECKING:
    import networkx as nx


def static_d_out_snapshot(n: int, d: int, seed: SeedLike = None) -> Snapshot:
    """The static d-out random graph of Lemma B.1 as a :class:`Snapshot`.

    All ``n`` nodes exist up front (birth time 0); each issues ``d``
    independent uniform requests among the other ``n − 1`` nodes.
    """
    if n < 2:
        raise ConfigurationError(f"need n >= 2, got {n}")
    if d < 1:
        raise ConfigurationError(f"need d >= 1, got {d}")
    rng = make_rng(seed)
    state = create_backend()
    for _ in range(n):
        state.add_node(state.allocate_id(), birth_time=0.0, num_slots=d)
    for u in range(n):
        for slot_index, target in enumerate(state.sample_targets(rng, d, exclude=u)):
            state.assign_slot(u, slot_index, target)
    return state.snapshot(time=0.0)


def erdos_renyi_snapshot(n: int, p: float, seed: SeedLike = None) -> Snapshot:
    """G(n, p) as a :class:`Snapshot` (comparison baseline)."""
    import networkx as nx

    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31 - 1)))
    return _snapshot_from_networkx(graph)


def random_regular_snapshot(n: int, degree: int, seed: SeedLike = None) -> Snapshot:
    """A uniform random *degree*-regular graph (comparison baseline)."""
    import networkx as nx

    if n * degree % 2 != 0:
        raise ConfigurationError("n * degree must be even for a regular graph")
    rng = make_rng(seed)
    graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31 - 1)))
    return _snapshot_from_networkx(graph)


def _snapshot_from_networkx(graph: nx.Graph) -> Snapshot:
    """Wrap an undirected networkx graph as a birth-time-0 snapshot."""
    nodes = frozenset(int(u) for u in graph.nodes)
    adjacency = {
        int(u): frozenset(int(v) for v in graph.neighbors(u)) for u in graph.nodes
    }
    return Snapshot(
        time=0.0,
        nodes=nodes,
        adjacency=adjacency,
        birth_times={u: 0.0 for u in nodes},
        out_slots={u: () for u in nodes},
    )
