"""Event record types emitted by the dynamic-network drivers.

Each churn event (a node birth or death) produces one :class:`EventRecord`
on first read, describing exactly which topology changes it caused: exact
per-event streaming rounds log plain ints and lists instead, and a
:class:`~repro.models.base.RoundReport` turns them into records
(:func:`decode_round_log`) only when its ``events`` are read.  The
asynchronous flooding process consumes these records to learn about
newly created edges incident to informed nodes; experiment code consumes
them for tracing.

The per-edge records :class:`EdgeCreated` and :class:`EdgeDestroyed` are
:class:`~typing.NamedTuple` classes: immutable, hashable and picklable,
and about half as costly to build as a frozen dataclass (the policy
hooks build one per request).  Being tuples, a record compares
equal to its ``(source, target)`` tuple (so an ``EdgeCreated`` and an
``EdgeDestroyed`` with the same endpoints compare equal too); tell them
apart by type or by the :class:`EventRecord` list holding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple


class EdgeCreated(NamedTuple):
    """An undirected edge appeared, requested by *source* towards *target*."""

    source: int
    target: int

    def endpoints(self) -> tuple[int, int]:
        return (self.source, self.target)


class EdgeDestroyed(NamedTuple):
    """An undirected edge disappeared (because one endpoint died)."""

    source: int
    target: int

    def endpoints(self) -> tuple[int, int]:
        return (self.source, self.target)


@dataclass(frozen=True)
class NodeBorn:
    """A node joined the network and issued its initial edge requests."""

    node_id: int


@dataclass(frozen=True)
class NodeDied:
    """A node left the network; all its incident edges disappeared."""

    node_id: int


@dataclass(frozen=True)
class NodesBorn:
    """A batch of nodes joined the network in one application (batched churn)."""

    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class NodesDied:
    """A batch of nodes left the network simultaneously (batched churn)."""

    node_ids: tuple[int, ...]


@dataclass
class EventRecord:
    """One churn event and the topology delta it caused.

    Attributes:
        time: simulation time at which the event occurred.
        kind: a :class:`NodeBorn` / :class:`NodeDied` marker, or a
            :class:`NodesBorn` / :class:`NodesDied` marker for one batched
            churn application.
        edges_created: edges that appeared as a consequence (the newborn's
            requests, or regenerated replacement edges after a death).
            Batched-birth records leave this empty — the backend applies
            the slots directly without per-edge bookkeeping.
        edges_destroyed: edges that disappeared (all edges incident to a
            dying node; empty for births).
    """

    time: float
    kind: NodeBorn | NodeDied | NodesBorn | NodesDied
    edges_created: list[EdgeCreated] = field(default_factory=list)
    edges_destroyed: list[EdgeDestroyed] = field(default_factory=list)

    @property
    def is_birth(self) -> bool:
        return isinstance(self.kind, (NodeBorn, NodesBorn))

    @property
    def is_death(self) -> bool:
        return isinstance(self.kind, (NodeDied, NodesDied))

    @property
    def node_id(self) -> int:
        if isinstance(self.kind, (NodesBorn, NodesDied)):
            raise ValueError("batched record has no single node_id; use node_ids")
        return self.kind.node_id

    @property
    def node_ids(self) -> tuple[int, ...]:
        """The affected node ids (one entry for single-node kinds)."""
        if isinstance(self.kind, (NodesBorn, NodesDied)):
            return self.kind.node_ids
        return (self.kind.node_id,)


def decode_round_log(log: tuple) -> list[EventRecord]:
    """The records of one exact streaming round, from its log entry.

    The window kernel logs a round as ``(time, dead, destroyed, owners,
    regenerated, born, targets)``: *dead* is ``None`` in a round without
    a death, otherwise *destroyed* is the dying node's neighbour set and
    *owners*/*regenerated* are the regenerated requests' sources and new
    targets (``None`` when nothing regenerated); *born* is the newborn
    and *targets* its request targets in slot order.

    Returns the death record (if any), then the birth record, equal to
    what the policy hooks return for that round: ``edges_destroyed`` in
    ascending neighbour id (sorted here, so an unread record costs
    nothing), the regenerated requests in order, the newborn's requests
    in slot order.  Edge records are built
    through ``tuple.__new__``, the C path behind the named tuples' own
    constructor, so they have the same type and values.
    """
    time, dead, destroyed, owners, regenerated, born, targets = log
    new = tuple.__new__
    records = []
    if dead is not None:
        records.append(
            EventRecord(
                time,
                NodeDied(dead),
                list(map(new, repeat(EdgeCreated), zip(owners, regenerated)))
                if owners
                else [],
                list(
                    map(
                        new,
                        repeat(EdgeDestroyed),
                        zip(repeat(dead), sorted(destroyed)),
                    )
                ),
            )
        )
    records.append(
        EventRecord(
            time,
            NodeBorn(born),
            list(map(new, repeat(EdgeCreated), zip(repeat(born), targets))),
        )
    )
    return records
