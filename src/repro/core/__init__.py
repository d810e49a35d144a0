"""Dynamic-graph core: node registry, slot-based topology, snapshots, policies.

Topology storage is pluggable (see :mod:`repro.core.backend`): the
dict-based reference backend and the vectorized array backend implement the
same :class:`GraphBackend` interface and produce bit-identical seeded
trajectories on the per-event path.
"""

from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import (
    BACKEND_NAMES,
    GraphBackend,
    create_backend,
    default_backend_name,
    use_backend,
)
from repro.core.edge_policy import (
    BoundedInDegreePolicy,
    CappedRegenerationPolicy,
    EdgePolicy,
    NoRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.core.graph import DictBackend
from repro.core.node import NodeRecord
from repro.core.snapshot import Snapshot

__all__ = [
    "ArraySlotBackend",
    "BACKEND_NAMES",
    "BoundedInDegreePolicy",
    "CappedRegenerationPolicy",
    "DictBackend",
    "EdgePolicy",
    "GraphBackend",
    "NodeRecord",
    "NoRegenerationPolicy",
    "RAESPolicy",
    "RegenerationPolicy",
    "Snapshot",
    "create_backend",
    "default_backend_name",
    "use_backend",
]
