"""Connected-component structure of snapshots.

The models without regeneration are never connected for constant ``d``
(Lemmas 3.5/4.10 give Ω_d(n) isolated nodes) but keep a *giant component*
covering a 1 − exp(−Ω(d)) fraction; with regeneration the snapshot is an
expander, hence connected w.h.p.  These helpers quantify that split.

The census runs on a :class:`~repro.core.csr.CSRView` (a snapshot is
converted once at entry), and :func:`giant_verts` is the one
giant-component rule every analysis restricted to the giant shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot


@dataclass(frozen=True)
class ComponentSummary:
    """Component census of one snapshot."""

    num_nodes: int
    num_components: int
    giant_size: int
    second_size: int
    num_isolated: int

    @property
    def giant_fraction(self) -> float:
        if self.num_nodes == 0:
            return 0.0
        return self.giant_size / self.num_nodes

    @property
    def is_connected(self) -> bool:
        return self.num_components == 1 and self.num_nodes > 0


def component_labels(view: CSRView) -> np.ndarray:
    """Connected-component label of every vert (label propagation on CSR).

    Iterates min-label relaxation over the symmetric CSR adjacency with
    pointer jumping (``labels = labels[labels]``) until the fixpoint, so
    convergence is O(log n) passes even on long paths.  At the fixpoint
    the label of a vert is the smallest vert index in its component.
    """
    space = view.space
    labels = np.arange(space, dtype=np.int64)
    indptr, indices = view.indptr, view.indices
    if indices.size == 0:
        return labels
    degrees = np.diff(indptr)
    nonempty = np.nonzero(degrees > 0)[0]
    starts = indptr[nonempty]
    while True:
        relaxed = labels.copy()
        neighbor_min = np.minimum.reduceat(labels[indices], starts)
        relaxed[nonempty] = np.minimum(relaxed[nonempty], neighbor_min)
        relaxed = relaxed[relaxed]  # pointer jump
        if np.array_equal(relaxed, labels):
            return labels
        labels = relaxed


def component_sizes(view: CSRView) -> np.ndarray:
    """Connected-component sizes, largest first (vectorized)."""
    if view.n == 0:
        return np.zeros(0, dtype=np.int64)
    labels = component_labels(view)[view.alive_verts]
    _, counts = np.unique(labels, return_counts=True)
    return np.sort(counts)[::-1]


def giant_verts(view: CSRView) -> np.ndarray:
    """Verts of the largest component, in ascending node-id order.

    Among components of maximal size the one holding the smallest node
    id wins.  The rule reads node ids, never storage rows, so the giant
    (and everything measured on it: λ₂, diameters, path samples) is the
    same on every backend however rows were reused.
    """
    if view.n == 0:
        return np.empty(0, dtype=np.int64)
    labels = component_labels(view)[view.alive_verts]
    _, inverse, counts = np.unique(
        labels, return_inverse=True, return_counts=True
    )
    # alive_verts is in ascending id order, so the first position whose
    # component has maximal size belongs to the winning component.
    first = int(np.argmax(counts[inverse] == counts.max()))
    return view.alive_verts[inverse == inverse[first]]


def component_summary(graph: Snapshot | CSRView) -> ComponentSummary:
    """Compute the component census of a snapshot or CSR view."""
    view = as_view(graph)
    sizes = component_sizes(view).tolist()
    return ComponentSummary(
        num_nodes=view.n,
        num_components=len(sizes),
        giant_size=sizes[0] if sizes else 0,
        second_size=sizes[1] if len(sizes) > 1 else 0,
        num_isolated=sum(1 for s in sizes if s == 1),
    )


def giant_component_fraction(graph: Snapshot | CSRView) -> float:
    """Fraction of nodes in the largest connected component."""
    return component_summary(graph).giant_fraction
