"""Registry of information-spreading protocols.

Every spreading process in the library is registered here under a short
name, so the scenario layer (:mod:`repro.scenario`), the CLI and the
smoke matrix can select a protocol declaratively:

=================  ===========================================  ==========
name               process                                      reference
=================  ===========================================  ==========
``discrete``       synchronous flooding                         Def. 3.3
``discretized``    unit-interval flooding (Poisson models)      Def. 4.3
``asynchronous``   continuous-time flooding (Poisson models)    Def. 4.2
``gossip``         push/pull rumour spreading                   DESIGN §5
``lossy``          flooding with per-message loss               extension
=================  ===========================================  ==========

A registry entry *is* the :mod:`repro.flooding` function, so
``get_protocol(name)(network, **params)`` is the direct call.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.flooding.asynchronous import flood_asynchronous
from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.flooding.gossip import gossip_push_pull
from repro.flooding.lossy import flood_lossy
from repro.flooding.result import FloodingResult

#: A spreading process: ``process(network, **params) -> FloodingResult``.
SpreadingProcess = Callable[..., FloodingResult]

PROTOCOLS: dict[str, SpreadingProcess] = {
    "asynchronous": flood_asynchronous,
    "discrete": flood_discrete,
    "discretized": flood_discretized,
    "gossip": gossip_push_pull,
    "lossy": flood_lossy,
}


def get_protocol(name: str) -> SpreadingProcess:
    """Look up a protocol by registry name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(protocol_names())
        raise ConfigurationError(
            f"unknown flooding protocol {name!r}; known: {known}"
        ) from None


def protocol_names() -> list[str]:
    """All registered protocol names, sorted."""
    return sorted(PROTOCOLS)
