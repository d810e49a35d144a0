"""Discretized continuous flooding — Definition 4.3.

The worst-case flooding process the paper uses to upper-bound flooding time
in the Poisson models: informed nodes transmit only at integer times, and a
transmission along edge ``{u, v}`` succeeds only if the edge existed *for
the whole unit interval*.

Because edges in the Poisson models are rewired only when an endpoint dies
(regeneration) or never (no regeneration), an edge present at the start of
an interval persists through the whole interval **iff both endpoints are
alive at the end**.  This gives the exact update rule

``I_t = (I_{t−1} ∩ N_t) ∪ {v ∈ N_t : ∃u ∈ I_{t−1} ∩ N_t, {u,v} ∈ E_{t−1}}``.

The rule lives in :class:`~repro.flooding.frontier.IntervalFrontier`; the
round loop and the completion test are
:func:`repro.flooding.frontier.spread`'s, shared with Definition 3.3.
"""

from __future__ import annotations

from typing import Iterable

from repro.flooding.frontier import IntervalFrontier, initial_informed, spread
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork


def flood_discretized(
    network: DynamicNetwork,
    source: int | None = None,
    max_rounds: int = 10_000,
    stop_when_extinct: bool = True,
    sources: Iterable[int] | None = None,
) -> FloodingResult:
    """Run Definition 4.3 flooding on a (Poisson) dynamic network.

    Args:
        network: the dynamic network driver (typically PDG/PDGR), warm.
        source: initially informed node; defaults to the youngest alive.
        max_rounds: hard cap on the number of unit intervals simulated.
        stop_when_extinct: stop once no informed node is alive.
        sources: start from several informed nodes at once (overrides
            *source*).
    """
    source, informed = initial_informed(network, source, sources)
    frontier = IntervalFrontier(network.state, informed)
    return spread(
        network,
        frontier,
        frontier.interval_proposal,
        source,
        max_rounds,
        stop_when_extinct,
    )
