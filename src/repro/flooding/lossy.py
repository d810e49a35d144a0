"""Flooding with message loss — a robustness extension.

The paper's flooding is reliable: every transmission arrives.  Real
networks drop messages; this variant makes each node→neighbour
transmission fail independently with probability *loss*.  With loss p,
each edge of an informed node delivers with probability 1−p per round, so
an informed node keeps retrying its uninformed neighbours — flooding
slows by roughly a 1/(1−p) factor but, on an expander, still completes in
O(log n) (the per-round growth constant shrinks from ε to ε(1−p)).

EXP-17 and the robustness tests use this to confirm the paper's O(log n)
claims degrade gracefully rather than collapsing.  As with gossip, the
rounds run on :func:`repro.flooding.frontier.spread` (always stopping on
extinction), the informed set lives in a :mod:`repro.flooding.frontier`
strategy and ``vectorized=True`` opts into the array backend's bulk
Bernoulli draws (same delivery law per round, different RNG stream).
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


def flood_lossy(
    network: DynamicNetwork,
    loss: float,
    source: int | None = None,
    max_rounds: int = 10_000,
    seed: SeedLike = None,
    vectorized: bool = False,
) -> FloodingResult:
    """Discrete flooding where each transmission fails w.p. *loss*.

    Identical round structure to :func:`repro.flooding.flood_discrete`
    (boundary in ``G_{t−1}``, then churn), except each (informed node →
    neighbour) transmission is delivered only with probability
    ``1 − loss``.  Informed nodes retransmit every round, so a lost
    message only delays, never blocks, a reachable neighbour.
    """
    if not 0.0 <= loss < 1.0:
        raise ConfigurationError(f"loss must be in [0, 1), got {loss}")
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
        partial(frontier.lossy_proposal, rng, loss),
        source,
        max_rounds,
    )
