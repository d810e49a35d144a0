"""Push/pull rumour spreading — an extension beyond the paper (DESIGN.md §5).

The paper's §5 notes that flooding contacts *all* neighbours, so a node of
degree Θ(log n) sends Θ(log n) messages per round, and asks for dynamics
with bounded communication.  Push/pull gossip is the classic bounded-budget
alternative: each round every informed node *pushes* the rumour to one
uniformly random neighbour, and every uninformed node *pulls* from one
uniformly random neighbour (receiving the rumour if that neighbour is
informed).  Per node per round: O(1) messages.

The rounds run on :func:`repro.flooding.frontier.spread`, the loop
:func:`repro.flooding.discrete.flood_discrete` uses: contacts are drawn in
the snapshot ``G_{t-1}``, then churn is applied and dead nodes drop out of
the informed set; the run always stops on extinction.  The informed set
lives in a :mod:`repro.flooding.frontier` strategy: the per-node
:class:`~repro.flooding.frontier.SetFrontier` reference (the default),
or the mask-based vectorized proposal when ``vectorized=True`` — same
contact distribution, different RNG stream, so vectorized runs are
statistically equivalent but not bit-identical to the reference.
"""

from __future__ import annotations

from functools import partial

from repro.errors import ConfigurationError
from repro.flooding.frontier import (
    MaskFrontier,
    SetFrontier,
    initial_informed,
    spread,
)
from repro.flooding.result import FloodingResult
from repro.models.base import DynamicNetwork
from repro.util.rng import SeedLike, make_rng


def gossip_push_pull(
    network: DynamicNetwork,
    source: int | None = None,
    max_rounds: int = 10_000,
    push: bool = True,
    pull: bool = True,
    seed: SeedLike = None,
    vectorized: bool = False,
) -> FloodingResult:
    """Run push/pull gossip on *network* until all alive nodes know the rumour.

    Args:
        network: a warm dynamic network driver.
        source: initially informed node; defaults to the youngest alive.
        max_rounds: hard cap on rounds.
        push: enable the push half (informed → random neighbour).
        pull: enable the pull half (uninformed ← random neighbour).
        seed: RNG for the contact choices (independent of the network's).
        vectorized: draw each round's contacts in bulk on the array
            backend's mask frontier (same distribution, different RNG
            stream than the per-node reference path).
    """
    if not push and not pull:
        raise ConfigurationError("enable at least one of push/pull")
    rng = make_rng(seed)
    source, informed = initial_informed(network, source)
    # The representations consume the RNG differently, so the mask
    # frontier is opt-in here (plain flooding always uses it).
    frontier = (MaskFrontier if vectorized else SetFrontier)(
        network.state, informed
    )
    return spread(
        network,
        frontier,
        partial(frontier.gossip_proposal, rng, push=push, pull=pull),
        source,
        max_rounds,
    )
