"""Degree statistics (Lemma 6.1 and the §5 max-degree remark).

Lemma 6.1: in a streaming snapshot every node has expected degree ``d``
(hence ``nd/2`` expected edges).  With regeneration the out-degree is
*exactly* ``d`` whenever the network has ≥ 2 nodes, so the edge count is
exactly ``nd`` request-edges (≤ nd distinct undirected edges).  Section 5
remarks that the maximum degree still grows like Θ(log n) — the in-degree
of a long-lived node behaves like a balls-in-bins maximum.

The degree statistics read the degree vector off a
:class:`~repro.core.csr.CSRView`; a snapshot is converted once at entry.
Only :func:`in_out_degree_split`, which needs the out-slots a view does
not carry, reads the snapshot itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.backend import GraphBackend
from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot


@dataclass(frozen=True)
class DegreeSummary:
    """Summary of a snapshot's degree distribution."""

    num_nodes: int
    num_edges: int
    mean_degree: float
    max_degree: int
    min_degree: int
    std_degree: float


def degree_summary(graph: Snapshot | CSRView) -> DegreeSummary:
    """Compute the degree summary of a snapshot or CSR view.

    Reads the degree vector straight off the CSR arrays — no per-node
    dict materialisation.
    """
    view = as_view(graph)
    degrees = view.degrees.astype(float)
    if degrees.size == 0:
        return DegreeSummary(0, 0, 0.0, 0, 0, 0.0)
    return DegreeSummary(
        num_nodes=view.n,
        num_edges=view.num_edges(),
        mean_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        min_degree=int(degrees.min()),
        std_degree=float(degrees.std(ddof=1)) if degrees.size > 1 else 0.0,
    )


def live_degree_summary(state: GraphBackend) -> DegreeSummary:
    """Degree summary straight off a live backend — no snapshot needed.

    Reads the backend's degree vector (one vectorized CSR pass on the
    array backend) instead of materialising per-node adjacency dicts, so
    it stays cheap inside hot monitoring loops.
    """
    degrees = state.degree_vector().astype(float)
    if degrees.size == 0:
        return DegreeSummary(0, 0, 0.0, 0, 0, 0.0)
    return DegreeSummary(
        num_nodes=state.num_alive(),
        num_edges=state.num_edges(),
        mean_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        min_degree=int(degrees.min()),
        std_degree=float(degrees.std(ddof=1)) if degrees.size > 1 else 0.0,
    )


def max_degree(graph: Snapshot | CSRView) -> int:
    """Maximum undirected degree."""
    view = as_view(graph)
    return int(view.degrees.max()) if view.n else 0


def in_out_degree_split(snapshot: Snapshot) -> dict[int, tuple[int, int]]:
    """Per-node (out_requests, in_requests) from the snapshot's slots.

    ``out_requests`` counts the node's assigned slots; ``in_requests``
    counts slots of other nodes pointing at it.  Their sum can exceed the
    undirected degree because parallel requests collapse to one edge.
    """
    in_counts: dict[int, int] = {u: 0 for u in snapshot.nodes}
    out_counts: dict[int, int] = {}
    for u, slots in snapshot.out_slots.items():
        assigned = [t for t in slots if t is not None]
        out_counts[u] = len(assigned)
        for t in assigned:
            if t in in_counts:
                in_counts[t] += 1
    return {u: (out_counts.get(u, 0), in_counts[u]) for u in snapshot.nodes}


def degree_histogram(graph: Snapshot | CSRView) -> dict[int, int]:
    """Map degree value -> number of nodes with that degree."""
    values, counts = np.unique(as_view(graph).degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))
