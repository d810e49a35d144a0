"""Synchronous flooding — Definition 3.3.

``I_t = (I_{t−1} ∪ ∂out^{t−1}(I_{t−1})) ∩ N_t``: at every round the entire
outer boundary of the informed set (in the *previous* snapshot) becomes
informed, then deaths are applied.  Note that the informing node does not
need to survive the round — the boundary is evaluated before the churn.

This is the process analysed for the streaming models (Theorems 3.7, 3.8,
3.16); it also runs on Poisson drivers (where one round = one unit of
continuous time), but for those the paper's Definition 4.3 semantics are
implemented separately in :mod:`repro.flooding.discretized`.

The round loop is :func:`repro.flooding.frontier.spread`; the proposal is
the frontier's boundary.  The informed set is a
:class:`~repro.flooding.frontier.MaskFrontier`, a row mask with
vectorized boundary expansion; it computes the same informed set each
round as the set-of-ids reference frontier.
"""

from __future__ import annotations

from typing import Iterable

from repro.flooding.frontier import MaskFrontier, initial_informed, spread
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork


def flood_discrete(
    network: DynamicNetwork,
    source: int | None = None,
    max_rounds: int = 10_000,
    stop_when_extinct: bool = True,
    sources: Iterable[int] | None = None,
) -> FloodingResult:
    """Run Definition 3.3 flooding on *network* until completion.

    Args:
        network: a (typically streaming) dynamic network, already warm.
        source: initially informed node; defaults to the youngest alive
            node (the paper starts flooding from the node that joins at
            ``t_0``).
        max_rounds: hard cap on the number of rounds simulated.
        stop_when_extinct: stop early once no informed node is alive
            (the broadcast can never progress again).
        sources: start from several informed nodes at once (overrides
            *source*; multi-source seeding is an extension beyond the
            paper's single-source Definition).

    Returns:
        A :class:`FloodingResult` with the full trajectory.
    """
    source, informed = initial_informed(network, source, sources)
    frontier = MaskFrontier(network.state, informed)
    # Only this process checks completion before the first round: a lone
    # source is every alive node.
    lone = network.state.num_alive() == 1
    result = spread(
        network,
        frontier,
        frontier.boundary,
        source,
        0 if lone else max_rounds,
        stop_when_extinct,
    )
    if lone:
        result.completed = True
        result.completion_round = 0
    return result
