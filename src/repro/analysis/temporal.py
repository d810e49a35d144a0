"""Temporal structure of the dynamic graph: edge lifetimes and drift.

The paper's analysis is all about snapshots; these helpers quantify the
*between*-snapshot behaviour that makes the models hard: how long edges
live, how fast the topology decorrelates, and whether a run has reached
stationarity.  Used by the robustness experiment (EXP-17) and available
as a user-facing diagnostic toolkit.

Topology comparisons (:func:`snapshot_jaccard`) read edge keys off a
:class:`~repro.core.csr.CSRView`; a snapshot argument is converted once
at entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot
from repro.errors import AnalysisError
from repro.models.base import DynamicNetwork


@dataclass(frozen=True)
class EdgeLifetimeStats:
    """Observed lifetimes of edges that were both created and destroyed
    inside the observation window."""

    observed: int
    mean: float
    median: float
    p90: float


def edge_lifetime_stats(
    network: DynamicNetwork, rounds: int
) -> EdgeLifetimeStats:
    """Advance *network* and record the lifetime of every edge that is
    created and later destroyed within the window.

    An undirected edge is identified by its endpoints; parallel
    re-creations restart the clock (matching the topology's semantics:
    the old edge is gone, the new one is new).
    """
    born_at: dict[tuple[int, int], float] = {}
    lifetimes: list[float] = []
    for _ in range(rounds):
        report = network.advance_round()
        for event in report.events:
            for edge in event.edges_created:
                key = _key(*edge.endpoints())
                born_at[key] = event.time
            for edge in event.edges_destroyed:
                key = _key(*edge.endpoints())
                start = born_at.pop(key, None)
                if start is not None:
                    lifetimes.append(event.time - start)
    if not lifetimes:
        raise AnalysisError("no complete edge lifetimes observed; run longer")
    data = np.asarray(lifetimes)
    return EdgeLifetimeStats(
        observed=int(data.size),
        mean=float(data.mean()),
        median=float(np.median(data)),
        p90=float(np.percentile(data, 90)),
    )


def snapshot_jaccard(a: Snapshot | CSRView, b: Snapshot | CSRView) -> float:
    """Jaccard similarity of the two graphs' edge sets.

    1.0 = identical topology, 0.0 = disjoint.  The decay of this value
    with time lag measures how fast the dynamic graph decorrelates.
    Accepts snapshots and CSR views in any combination — edge keys are
    read straight off the view arrays (one ``u < v`` mask plus a sort),
    so the array backend never freezes a dict to compare two windows.
    """
    keys_a = _edge_keys(as_view(a))
    keys_b = _edge_keys(as_view(b))
    intersection = np.intersect1d(keys_a, keys_b, assume_unique=True).size
    union = keys_a.size + keys_b.size - intersection
    if union == 0:
        return 1.0
    return intersection / union


def node_survival_curve(
    network: DynamicNetwork, horizons: list[int]
) -> list[float]:
    """Fraction of the current node set still alive after each horizon.

    Advances the network to the largest horizon (mutating it).  For the
    paper's models the curve should match e^{−h/n} (Poisson) or the
    linear ramp (streaming); heavy-tailed models decay faster early.
    """
    if horizons != sorted(horizons):
        raise AnalysisError("horizons must be sorted ascending")
    cohort = set(network.state.alive_ids())
    if not cohort:
        raise AnalysisError("no alive nodes to track")
    results: list[float] = []
    elapsed = 0
    for horizon in horizons:
        network.run_rounds(horizon - elapsed)
        elapsed = horizon
        alive = sum(1 for u in cohort if network.state.is_alive(u))
        results.append(alive / len(cohort))
    return results


def topology_change_rate(network: DynamicNetwork, rounds: int) -> float:
    """Average number of edge changes (created + destroyed) per round."""
    changes = 0
    for _ in range(rounds):
        report = network.advance_round()
        for event in report.events:
            changes += len(event.edges_created) + len(event.edges_destroyed)
    return changes / max(rounds, 1)


def stationarity_diagnostic(
    network: DynamicNetwork, probes: int = 10, spacing: int = 20
) -> dict[str, float]:
    """Probe the network repeatedly and report drift statistics.

    Returns the relative drift of node count and edge count between the
    first and second half of the probe sequence; values near 0 indicate
    stationarity.  Mutates the network (advances probes × spacing rounds).
    """
    sizes: list[int] = []
    edges: list[int] = []
    for _ in range(probes):
        network.run_rounds(spacing)
        sizes.append(network.state.num_alive())
        edges.append(network.state.num_edges())
    half = probes // 2
    if half == 0:
        raise AnalysisError("need at least 2 probes")

    def drift(series: list[int]) -> float:
        first = np.mean(series[:half])
        second = np.mean(series[half:])
        if first == 0:
            return float("inf") if second else 0.0
        return float(abs(second - first) / first)

    return {
        "size_drift": drift(sizes),
        "edge_drift": drift(edges),
        "mean_size": float(np.mean(sizes)),
        "mean_edges": float(np.mean(edges)),
    }


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _edge_keys(view: CSRView) -> np.ndarray:
    """Sorted uint64 keys (``u << 32 | v`` with ``u < v``) of the distinct
    undirected edges — one comparable array per graph."""
    owner = np.repeat(
        np.arange(view.space, dtype=np.int64), np.diff(view.indptr)
    )
    u = view.vert_ids[owner]
    v = view.vert_ids[view.indices]
    keep = u < v
    u, v = u[keep], v[keep]
    if u.size and int(v.max()) >= 1 << 32:
        raise AnalysisError("node ids beyond 2^32 not supported here")
    keys = (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
    keys.sort()
    return keys
