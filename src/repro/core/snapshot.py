"""Immutable topology snapshots.

A :class:`Snapshot` freezes the node set, adjacency, birth times, and
out-slots of a dynamic graph at one instant (the paper's ``G_t``), for
topology that must outlive the window it was taken in.  Analyses run on
a :class:`~repro.core.csr.CSRView`: a snapshot handed to one converts
once, through its memoized :meth:`Snapshot.csr_view`.  Only the few
analyses that need what a view does not carry (out-slots, ages, the
exhaustive expansion) read the snapshot's dicts.  Snapshots also convert
to :mod:`networkx` graphs and answer small graph queries (boundaries,
degrees, components) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Snapshot:
    """An immutable picture of the network at time ``time``.

    Attributes:
        time: simulation time of the snapshot.
        nodes: alive node ids.
        adjacency: distinct undirected neighbours of each alive node.
        birth_times: birth time of each alive node (for age analyses).
        out_slots: the out-request slots of each alive node (``None``
            entries are dead-destination slots in no-regen models).
    """

    time: float
    nodes: frozenset[int]
    adjacency: Mapping[int, frozenset[int]]
    birth_times: Mapping[int, float]
    out_slots: Mapping[int, tuple[int | None, ...]]

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def num_nodes(self) -> int:
        return len(self.nodes)

    def num_edges(self) -> int:
        """Number of distinct undirected edges (memoized: the topology is
        frozen, so the first count is definitive).

        ``functools.cached_property`` does not compose with frozen
        dataclasses, so the cache is stashed with ``object.__setattr__``
        — it lives outside the dataclass fields and therefore does not
        affect equality or the serialised form.
        """
        cached = self.__dict__.get("_num_edges")
        if cached is None:
            cached = sum(len(nbrs) for nbrs in self.adjacency.values()) // 2
            object.__setattr__(self, "_num_edges", cached)
        return cached

    def degree(self, node_id: int) -> int:
        return len(self.adjacency[node_id])

    def degrees(self) -> dict[int, int]:
        """Node → distinct-neighbour degree (memoized; treat as read-only).

        Repeated callers (probe seed selection, degree censuses) get the
        same dict object back — copy before mutating.
        """
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = {u: len(nbrs) for u, nbrs in self.adjacency.items()}
            object.__setattr__(self, "_degrees", cached)
        return cached

    def age(self, node_id: int) -> float:
        """Age of *node_id* at snapshot time."""
        return self.time - self.birth_times[node_id]

    def ages(self) -> dict[int, float]:
        return {u: self.time - b for u, b in self.birth_times.items()}

    def isolated_nodes(self) -> set[int]:
        """Nodes with no incident edges."""
        return {u for u, nbrs in self.adjacency.items() if not nbrs}

    # ------------------------------------------------------------------
    # set boundaries (Definition 3.1)
    # ------------------------------------------------------------------

    def outer_boundary(self, subset: Iterable[int]) -> set[int]:
        """``∂out(S)``: nodes outside *subset* adjacent to it."""
        inside = set(subset)
        boundary: set[int] = set()
        for u in inside:
            for v in self.adjacency[u]:
                if v not in inside:
                    boundary.add(v)
        return boundary

    def expansion_of(self, subset: Iterable[int]) -> float:
        """``|∂out(S)| / |S|`` for a non-empty subset."""
        inside = set(subset)
        if not inside:
            raise ValueError("expansion of the empty set is undefined")
        return len(self.outer_boundary(inside)) / len(inside)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation (round-trips via from_dict).

        Dict keys are stringified node ids so the output survives
        ``json.dumps``/``json.loads`` unchanged.
        """
        return {
            "time": self.time,
            "nodes": sorted(self.nodes),
            "adjacency": {
                str(u): sorted(nbrs) for u, nbrs in self.adjacency.items()
            },
            "birth_times": {str(u): b for u, b in self.birth_times.items()},
            "out_slots": {
                str(u): list(slots) for u, slots in self.out_slots.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Snapshot":
        """Rebuild a snapshot produced by :meth:`to_dict`."""
        nodes = frozenset(int(u) for u in payload["nodes"])
        return cls(
            time=float(payload["time"]),
            nodes=nodes,
            adjacency={
                int(u): frozenset(int(v) for v in nbrs)
                for u, nbrs in payload["adjacency"].items()
            },
            birth_times={
                int(u): float(b) for u, b in payload["birth_times"].items()
            },
            out_slots={
                int(u): tuple(
                    None if t is None else int(t) for t in slots
                )
                for u, slots in payload["out_slots"].items()
            },
        )

    def csr_view(self):
        """Export as a :class:`~repro.core.csr.CSRView` (memoized).

        The bridge from the frozen dict representation into the analysis
        plane: every analysis handed a snapshot runs on this view.  The
        first call builds it; later calls return the same object (cached
        like :meth:`num_edges`, outside the dataclass fields).
        """
        cached = self.__dict__.get("_csr_view")
        if cached is None:
            from repro.core.csr import csr_view_from_snapshot

            cached = csr_view_from_snapshot(self)
            object.__setattr__(self, "_csr_view", cached)
        return cached

    def to_networkx(self) -> nx.Graph:
        """Export as a simple undirected :class:`networkx.Graph`.

        Node attributes: ``birth_time`` and ``age``.
        """
        import networkx as nx

        graph = nx.Graph()
        for u in self.nodes:
            graph.add_node(u, birth_time=self.birth_times[u], age=self.age(u))
        for u, nbrs in self.adjacency.items():
            for v in nbrs:
                if u < v:
                    graph.add_edge(u, v)
        return graph

    def subgraph_adjacency(self, subset: Iterable[int]) -> dict[int, set[int]]:
        """Adjacency restricted to *subset* (plain dict-of-sets)."""
        inside = set(subset)
        return {u: set(self.adjacency[u]) & inside for u in inside}

    def connected_components(self) -> list[set[int]]:
        """Connected components, largest first (BFS, no networkx needed)."""
        unseen = set(self.nodes)
        components: list[set[int]] = []
        while unseen:
            root = next(iter(unseen))
            component = {root}
            frontier = [root]
            unseen.discard(root)
            while frontier:
                u = frontier.pop()
                for v in self.adjacency[u]:
                    if v in unseen:
                        unseen.discard(v)
                        component.add(v)
                        frontier.append(v)
            components.append(component)
        components.sort(key=len, reverse=True)
        return components
