"""Spectral expansion proxies.

Exact vertex expansion is intractable at scale, so EXP-03 supplements the
adversarial combinatorial probes with the spectral gap of the normalized
Laplacian on the giant component: Cheeger's inequality sandwiches the
*conductance* Φ as ``λ₂ / 2 ≤ Φ ≤ √(2 λ₂)``, and conductance lower-bounds
vertex expansion up to the maximum degree (``h_out ≥ Φ`` for the boundary
counted with edges, divided by d_max to convert edge- to vertex-boundary).
A spectral gap bounded away from zero across n is independent evidence for
the Θ(1)-expander claims (Theorems 3.15/4.16).

Both entry points run on a :class:`~repro.core.csr.CSRView` (a
``Snapshot`` is converted once at entry).  The scipy CSR matrix is
assembled directly from the view's ``indptr``/``indices`` arrays — no
Python-dict traversal, no COO staging — and the giant component is
:func:`~repro.analysis.components.giant_verts`, the rule the distance
analyses share, so λ₂ does not depend on the backend's row layout.
The set-based reference the test suite checks λ₂ against agrees to
floating-point roundoff on the same topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.components import giant_verts
from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class CheegerBounds:
    """Conductance bounds derived from the spectral gap."""

    lambda2: float
    conductance_lower: float
    conductance_upper: float
    vertex_expansion_lower: float


def _lambda2_of_adjacency(adjacency: sp.csr_matrix) -> float:
    """λ₂ of the normalized Laplacian of one connected adjacency matrix."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    if np.any(degrees == 0):
        raise AnalysisError("giant component contains an isolated node (bug)")
    inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    laplacian = sp.identity(n) - inv_sqrt @ adjacency @ inv_sqrt
    if n <= 400:
        eigenvalues = np.linalg.eigvalsh(laplacian.toarray())
        return float(np.sort(eigenvalues)[1])
    eigenvalues = spla.eigsh(
        laplacian, k=2, sigma=-0.01, which="LM", return_eigenvectors=False
    )
    return float(np.sort(eigenvalues)[1])


def _view_adjacency(view: CSRView, verts: np.ndarray) -> sp.csr_matrix:
    """The scipy CSR adjacency of *verts*, built from the view's arrays.

    The full-space matrix wraps ``indptr``/``indices`` as-is (the data
    vector of ones is the only allocation); restricting to *verts* is
    one scipy submatrix gather.
    """
    import scipy.sparse as sp

    full = sp.csr_matrix(
        (
            np.ones(view.indices.size, dtype=float),
            view.indices,
            view.indptr,
        ),
        shape=(view.space, view.space),
    )
    if verts.size == view.space:
        return full
    return full[verts][:, verts].tocsr()


def normalized_laplacian_lambda2(
    graph: Snapshot | CSRView, on_giant: bool = True
) -> float:
    """Second-smallest eigenvalue of the normalized Laplacian.

    Args:
        graph: topology to analyse — a frozen :class:`Snapshot` or a
            :class:`~repro.core.csr.CSRView` (zero-copy on the array
            backend).
        on_giant: restrict to the largest connected component (otherwise
            a disconnected graph trivially has λ₂ = 0).
    """
    view = as_view(graph)
    if view.n == 0:
        raise AnalysisError("empty graph has no spectral gap")
    verts = giant_verts(view) if on_giant else view.alive_verts
    if verts.size < 3:
        raise AnalysisError(f"need at least 3 nodes, got {verts.size}")
    return _lambda2_of_adjacency(_view_adjacency(view, verts))


def cheeger_bounds(
    graph: Snapshot | CSRView, on_giant: bool = True
) -> CheegerBounds:
    """Cheeger sandwich for conductance plus a vertex-expansion lower bound.

    ``h_out ≥ Φ · d_min / d_max`` is loose but rigorous: every edge leaving
    a set lands on a boundary vertex that absorbs at most ``d_max`` edges,
    and each set vertex carries at least ``d_min`` volume.
    """
    view = as_view(graph)
    lam2 = normalized_laplacian_lambda2(view, on_giant=on_giant)
    nonzero = view.degrees[view.degrees > 0]
    d_max = int(nonzero.max()) if nonzero.size else 1
    d_min = int(nonzero.min()) if nonzero.size else 1
    phi_lower = lam2 / 2.0
    phi_upper = math.sqrt(max(0.0, 2.0 * lam2))
    return CheegerBounds(
        lambda2=lam2,
        conductance_lower=phi_lower,
        conductance_upper=phi_upper,
        vertex_expansion_lower=phi_lower * d_min / d_max,
    )
