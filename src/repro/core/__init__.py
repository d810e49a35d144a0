"""Dynamic-graph core: node registry, slot-based topology, snapshots, policies.

Topology storage is the vectorized :class:`ArraySlotBackend`, built by
:func:`create_backend` on the shared :class:`GraphBackend` base (see
:mod:`repro.core.backend`).
"""

from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import GraphBackend, create_backend
from repro.core.edge_policy import (
    BoundedInDegreePolicy,
    CappedRegenerationPolicy,
    EdgePolicy,
    NoRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot

__all__ = [
    "ArraySlotBackend",
    "BoundedInDegreePolicy",
    "CappedRegenerationPolicy",
    "EdgePolicy",
    "GraphBackend",
    "NodeRecord",
    "NoRegenerationPolicy",
    "RAESPolicy",
    "RegenerationPolicy",
    "Snapshot",
    "create_backend",
]
