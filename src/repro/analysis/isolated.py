"""Isolated-node census (Lemmas 3.5 and 4.10).

The negative results for the models *without* edge regeneration rest on two
facts: (i) a snapshot contains Ω_d(n) isolated nodes, and (ii) those nodes
*stay* isolated for the rest of their lives.  :func:`count_isolated`
measures (i) on a snapshot; :func:`lifetime_isolated_census` measures both
by running the network forward and watching whether any currently-isolated
node ever regains an edge before dying.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.csr import CSRView, as_view
from repro.core.snapshot import Snapshot
from repro.models.base import DynamicNetwork


def count_isolated(graph: Snapshot | CSRView) -> int:
    """Number of degree-0 nodes in the snapshot or CSR view."""
    return int((as_view(graph).degrees == 0).sum())


def isolated_fraction(graph: Snapshot | CSRView) -> float:
    """Fraction of alive nodes that are isolated."""
    view = as_view(graph)
    if view.n == 0:
        return 0.0
    return count_isolated(view) / view.n


@dataclass(frozen=True)
class IsolatedCensus:
    """Result of tracking the isolated nodes of one snapshot to their deaths.

    Attributes:
        initial_isolated: nodes isolated at the census start.
        network_size: |N_t| at the census start.
        reconnected: how many of them gained an edge before dying.
        died_isolated: how many died without ever regaining an edge.
        still_alive: how many were still alive (and isolated) at the
            observation horizon.
    """

    initial_isolated: int
    network_size: int
    reconnected: int
    died_isolated: int
    still_alive: int

    @property
    def initial_fraction(self) -> float:
        if self.network_size == 0:
            return 0.0
        return self.initial_isolated / self.network_size

    @property
    def forever_isolated_fraction_of_tracked(self) -> float:
        """Fraction of tracked isolated nodes that never reconnected.

        Nodes still alive at the horizon count as not-yet-reconnected.
        """
        if self.initial_isolated == 0:
            return 1.0
        return (self.died_isolated + self.still_alive) / self.initial_isolated


def lifetime_isolated_census(
    network: DynamicNetwork, max_rounds: int | None = None
) -> IsolatedCensus:
    """Track every currently-isolated node of *network* until death.

    Advances the network round by round (mutating it), checking after each
    round whether any tracked node has regained an edge.  For streaming
    models ``max_rounds`` defaults to ``n`` (every current node is dead
    after n rounds); for Poisson models it defaults to ``6n`` (the chance
    of a lifetime exceeding 6n is e^{-6}).
    """
    state = network.state
    snapshot_isolated = {
        u for u in state.alive_ids() if state.degree(u) == 0
    }
    initial = len(snapshot_isolated)
    network_size = state.num_alive()
    if max_rounds is None:
        horizon = getattr(network, "n", 1000)
        max_rounds = int(6 * horizon)

    tracked = set(snapshot_isolated)
    reconnected = 0
    died_isolated = 0
    for _ in range(max_rounds):
        if not tracked:
            break
        network.advance_round()
        for u in list(tracked):
            if not state.is_alive(u):
                tracked.discard(u)
                died_isolated += 1
            elif state.degree(u) > 0:
                tracked.discard(u)
                reconnected += 1
    return IsolatedCensus(
        initial_isolated=initial,
        network_size=network_size,
        reconnected=reconnected,
        died_isolated=died_isolated,
        still_alive=len(tracked),
    )
