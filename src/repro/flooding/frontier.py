"""The round engine of the spreading processes, and the informed sets it
drives.

Definitions 3.3 and 4.3 share one round structure: inform on the
pre-churn snapshot ``G_{t−1}``, apply the round's churn, drop the dead,
and stop once every uninformed alive node is a newborn (``I_t ⊇ N_{t−1} ∩
N_t``).  :func:`spread` runs that loop once for
:func:`~repro.flooding.discrete.flood_discrete`,
:func:`~repro.flooding.discretized.flood_discretized`,
:func:`~repro.flooding.gossip.gossip_push_pull` and
:func:`~repro.flooding.lossy.flood_lossy`; each process only picks a
frontier and the proposal it absorbs.  :func:`initial_informed` resolves
the source for every process, the asynchronous one included.

The informed set is one of three frontiers:

* :class:`SetFrontier` — the reference implementation: a Python set of
  node ids, boundary via per-node neighbour unions, gossip/lossy contact
  draws per node.  Gossip and lossy flooding use it by default; it only
  needs the :class:`~repro.core.backend.GraphBackend` queries, so it also
  floods the dict oracle of the test suite.
* :class:`MaskFrontier` — a boolean mask over the array backend's rows;
  boundary expansion is ``informed-mask × slot-matrix`` in NumPy
  (see :meth:`~repro.core.array_backend.ArraySlotBackend.boundary_rows`),
  and the gossip/lossy proposals draw all of a round's contacts in a
  handful of array operations over the lazy CSR adjacency.  Plain
  flooding always uses it; gossip and lossy flooding with
  ``vectorized=True``.
* :class:`IntervalFrontier` — Definition 4.3's set: the proposal freezes
  the informed nodes' neighbour lists at the interval start, and only
  informers that survive the interval pass the rumour along them.

For the deterministic boundary (plain flooding) the set and mask
frontiers compute the identical informed set each round — only the
representation differs — so seeded flooding trajectories match (the
parity tests run the set frontier on the dict oracle).  The
randomized proposals (:meth:`~SetFrontier.gossip_proposal`,
:meth:`~SetFrontier.lossy_proposal`) draw the same *distribution* on
either frontier but consume the RNG in different orders, so mask-based
gossip/lossy runs are statistically equivalent, not bit-identical, to
the set-based reference.

Each round is split in two because churn happens between the proposal
and the update: propose on the *pre-churn* topology, advance the
network, then :meth:`absorb` the proposal, discarding members that died.
The mask variant must additionally scrub rows recycled by same-round
births: a newborn can reuse the row of a dead informed node, and without
the scrub it would inherit the stale informed bit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol

import numpy as np

from repro.core.backend import GraphBackend
from repro.errors import ConfigurationError
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork, RoundReport


class Frontier(Protocol):
    """The informed-set operations :func:`spread` needs."""

    def count(self) -> int: ...

    def contains(self, node_id: int) -> bool: ...

    def absorb(self, proposal: object, report: RoundReport) -> None: ...


class SetFrontier:
    """Informed set as a plain set of node ids (any backend)."""

    def __init__(self, state: GraphBackend, informed: Iterable[int]) -> None:
        self.state = state
        self.informed = set(informed)

    def count(self) -> int:
        return len(self.informed)

    def contains(self, node_id: int) -> bool:
        return node_id in self.informed

    def boundary(self) -> set[int]:
        """``∂out(I)`` in the current (pre-churn) topology."""
        return self.state.boundary_of(self.informed)

    def gossip_proposal(
        self, rng: np.random.Generator, push: bool = True, pull: bool = True
    ) -> set[int]:
        """One push/pull gossip round's newly-informed set (pre-churn).

        Every informed node *pushes* to one uniform neighbour; every
        uninformed node not reached by a push *pulls* from one uniform
        neighbour (informed contact ⇒ informed).
        """
        state, informed = self.state, self.informed
        newly: set[int] = set()
        if push:
            for u in informed:
                neighbor = state.random_neighbor(u, rng)
                if neighbor is not None and neighbor not in informed:
                    newly.add(neighbor)
        if pull:
            for u in state.alive_ids():
                if u in informed or u in newly:
                    continue
                neighbor = state.random_neighbor(u, rng)
                if neighbor is not None and neighbor in informed:
                    newly.add(u)
        return newly

    def lossy_proposal(self, rng: np.random.Generator, loss: float) -> set[int]:
        """One lossy-flooding round's delivered set (pre-churn).

        Each (informed node → uninformed neighbour) transmission succeeds
        independently with probability ``1 − loss``; a node already
        delivered this round receives no further transmissions.  The
        draws go in ascending order of sender, then of neighbour.
        """
        state, informed = self.state, self.informed
        delivered: set[int] = set()
        for u in sorted(informed):
            for v in sorted(state.neighbors(u)):
                if v in informed or v in delivered:
                    continue
                if rng.random() >= loss:
                    delivered.add(v)
        return delivered

    def absorb(self, boundary: set[int], report: RoundReport) -> None:
        """``I ← (I ∪ boundary) ∩ alive`` after the churn."""
        del report  # newborn ids are fresh, so they can never be in I
        self.informed |= boundary
        state = self.state
        self.informed = {u for u in self.informed if state.is_alive(u)}


class IntervalFrontier(SetFrontier):
    """Definition 4.3's informed set (discretized flooding).

    In the Poisson models an edge disappears only when an endpoint dies,
    so an edge present at the start of a unit interval lasts the whole
    interval iff both endpoints are alive at its end.
    """

    def interval_proposal(self) -> dict[int, list[int]]:
        """The informed nodes' neighbour lists, frozen at interval start."""
        state = self.state
        return {u: list(state.neighbors(u)) for u in self.informed}

    def absorb(self, frozen: dict[int, list[int]], report: RoundReport) -> None:
        """``I ← (I ∩ N_t) ∪ {v ∈ N_t : v a frozen neighbour of I ∩ N_t}``."""
        del report  # newborn ids are fresh, so they can never be in I
        state = self.state
        # Informers must survive the interval for their edges to persist.
        survivors = {u for u in self.informed if state.is_alive(u)}
        newly: set[int] = set()
        for u in survivors:
            for v in frozen[u]:
                if v not in survivors and state.is_alive(v):
                    newly.add(v)
        self.informed = survivors | newly


class MaskFrontier:
    """Informed set as a boolean mask over array-backend rows."""

    def __init__(self, state: GraphBackend, informed: Iterable[int]) -> None:
        self.state = state
        self.mask = np.zeros(state.row_capacity(), dtype=bool)
        rows = state.rows_for(informed)
        if rows.size:
            self.mask[rows] = True

    def count(self) -> int:
        return int(self.mask.sum())

    def contains(self, node_id: int) -> bool:
        row = self.state.row_if_alive(node_id)
        return row is not None and bool(self.mask[row])

    def _padded(self, mask: np.ndarray) -> np.ndarray:
        """Grow *mask* to the backend's current row capacity (births may
        have resized the row arrays since the mask was made)."""
        cap = self.state.row_capacity()
        if len(mask) == cap:
            return mask
        grown = np.zeros(cap, dtype=bool)
        grown[: len(mask)] = mask
        return grown

    def boundary(self) -> np.ndarray:
        """Vectorized ``∂out(I)`` as a row mask (pre-churn topology)."""
        self.mask = self._padded(self.mask)
        return self.state.boundary_rows(self.mask)

    def gossip_proposal(
        self, rng: np.random.Generator, push: bool = True, pull: bool = True
    ) -> np.ndarray:
        """Vectorized push/pull gossip round as a row mask (pre-churn).

        All contact choices of a round are drawn in two ``rng.integers``
        calls over the lazy CSR adjacency — same contact law as
        :meth:`SetFrontier.gossip_proposal`, different RNG consumption.
        """
        state = self.state
        self.mask = self._padded(self.mask)
        informed = self.mask & state.alive_row_mask()
        indptr, indices = state.adjacency_csr()
        degrees = np.diff(indptr)
        newly = np.zeros(len(self.mask), dtype=bool)
        if push:
            rows = np.nonzero(informed & (degrees > 0))[0]
            if rows.size:
                offsets = rng.integers(0, degrees[rows])
                newly[indices[indptr[rows] + offsets]] = True
        if pull:
            rows = np.nonzero(
                state.alive_row_mask() & ~informed & ~newly & (degrees > 0)
            )[0]
            if rows.size:
                offsets = rng.integers(0, degrees[rows])
                contacts = indices[indptr[rows] + offsets]
                newly[rows[informed[contacts]]] = True
        newly &= ~informed
        return newly

    def lossy_proposal(self, rng: np.random.Generator, loss: float) -> np.ndarray:
        """Vectorized lossy-flooding round as a row mask (pre-churn).

        One Bernoulli(1 − loss) draw per (informed → uninformed) directed
        CSR edge; a row is delivered when any incident transmission
        succeeds — the same delivery law as the per-node reference (each
        target's first successful transmission informs it).
        """
        state = self.state
        self.mask = self._padded(self.mask)
        informed = self.mask & state.alive_row_mask()
        indptr, indices = state.adjacency_csr()
        sources = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        candidates = indices[informed[sources] & ~informed[indices]]
        newly = np.zeros(len(self.mask), dtype=bool)
        if candidates.size:
            delivered = candidates[rng.random(candidates.size) >= loss]
            newly[delivered] = True
        return newly

    def absorb(self, boundary: np.ndarray, report: RoundReport) -> None:
        state = self.state
        mask = self._padded(self.mask) | self._padded(boundary)
        # Scrub rows recycled by this round's births: the previous occupant
        # died mid-round, and its informed/boundary bit must not leak onto
        # the newborn (the id-set semantics: newborn ids are never informed).
        for born in report.births:
            row = state.row_if_alive(born)
            if row is not None:
                mask[row] = False
        mask &= state.alive_row_mask()
        self.mask = mask


def initial_informed(
    network: DynamicNetwork,
    source: int | None = None,
    sources: Iterable[int] | None = None,
) -> tuple[int, set[int]]:
    """Resolve a process's seeds to ``(reported source, informed set)``.

    *sources* overrides *source* and reports its minimum; the default
    source is the youngest alive node (the paper starts flooding from the
    node that joins at ``t_0``).  Every seed must be alive.
    """
    state = network.state
    if sources is not None:
        informed = set(sources)
        if not informed:
            raise ConfigurationError("sources must be non-empty when given")
        source = min(informed)
    else:
        if source is None:
            source = state.youngest_alive()
        informed = {source}
    for node in informed:
        if not state.is_alive(node):
            raise ConfigurationError(f"source node {node} is not alive")
    return source, informed


def spread(
    network: DynamicNetwork,
    frontier: Frontier,
    propose: Callable[[], object],
    source: int,
    max_rounds: int,
    stop_when_extinct: bool = True,
) -> FloodingResult:
    """Run the synchronous round process until completion or *max_rounds*.

    Each round calls *propose* on the pre-churn snapshot ``G_{t−1}``,
    advances *network* one round and lets *frontier* absorb the proposal.
    The run completes at the first round whose uninformed alive nodes are
    all newborns of that round (Definition 3.3's ``I_t ⊇ N_{t−1} ∩ N_t``),
    and is extinct once no informed node is alive; *stop_when_extinct*
    ends the run there.
    """
    state = network.state
    result = FloodingResult(source=source, start_time=network.now)
    result.record_round(frontier.count(), state.num_alive())
    for round_index in range(1, max_rounds + 1):
        proposal = propose()

        report = network.advance_round()

        frontier.absorb(proposal, report)
        informed_count = frontier.count()
        result.record_round(informed_count, state.num_alive())

        uninformed_count = state.num_alive() - informed_count
        fresh_uninformed = sum(
            1
            for b in report.births
            if state.is_alive(b) and not frontier.contains(b)
        )
        if informed_count and uninformed_count == fresh_uninformed:
            result.completed = True
            result.completion_round = round_index
            return result
        if not informed_count:
            if not result.extinct:
                result.extinct = True
                result.extinction_round = round_index
            if stop_when_extinct:
                return result
    return result
