"""Flooding processes over dynamic graphs.

Faithful implementations of the paper's three flooding definitions, plus
two extensions:

* :func:`flood_discrete` — Definition 3.3, the synchronous process used for
  the streaming models: ``I_t = (I_{t−1} ∪ ∂out(I_{t−1})) ∩ N_t``.
* :func:`flood_discretized` — Definition 4.3 for the Poisson models: a node
  is newly informed only if it was the neighbour of an informed node *for a
  whole unit interval* (both endpoints must survive the interval).  This is
  the worst-case process the paper's upper bounds analyse.
* :func:`flood_asynchronous` — Definition 4.2 for the Poisson models:
  messages traverse an edge in exactly one time unit, interleaved with
  churn events on the event engine.
* :func:`gossip_push_pull` — extension (DESIGN.md §5): one random neighbour
  contacted per round instead of all neighbours.
* :func:`flood_lossy` — extension: flooding where each transmission fails
  independently with a fixed probability.

The four round processes share one round engine,
:func:`repro.flooding.frontier.spread`, and differ only in the frontier
and the per-round proposal they hand it.  All five are registered by name
in :mod:`repro.flooding.protocols` (``discrete``, ``discretized``,
``asynchronous``, ``gossip``, ``lossy``); the scenario layer selects a
protocol there and calls the function it names.
"""

from repro.flooding.asynchronous import flood_asynchronous
from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.flooding.gossip import gossip_push_pull
from repro.flooding.lossy import flood_lossy
from repro.flooding.protocols import get_protocol, protocol_names
from repro.flooding.result import FloodingResult

__all__ = [
    "FloodingResult",
    "flood_asynchronous",
    "flood_discrete",
    "flood_discretized",
    "flood_lossy",
    "get_protocol",
    "gossip_push_pull",
    "protocol_names",
]
