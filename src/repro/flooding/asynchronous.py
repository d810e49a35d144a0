"""Asynchronous continuous-time flooding — Definition 4.2.

Messages take exactly one unit of time to traverse an edge.  The process
interleaves with the churn jump chain on a shared timeline:

* when a node becomes informed at time ``s``, it transmits along all its
  current edges; each transmission is scheduled to arrive at ``s + 1``;
* a transmission along ``{u, v}`` succeeds iff the edge still exists at
  arrival time — in these models an edge disappears only when an endpoint
  dies, so the check is "both endpoints alive and still adjacent";
* whenever churn creates a new edge with exactly one informed endpoint
  (a newborn attaching to an informed node, or a regenerated request from
  or to an informed node), the informed endpoint transmits along it.

Completion is checked in continuous time: the broadcast completes at the
first instant every alive node is informed (``I_t ⊇ N_t``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.flooding.frontier import initial_informed
from repro.flooding.result import FloodingResult
from repro.models.poisson import PoissonNetwork
from repro.sim.engine import EventEngine


@dataclass(frozen=True)
class _Delivery:
    """A message in flight from *sender* to *target*."""

    sender: int
    target: int


def flood_asynchronous(
    network: PoissonNetwork,
    source: int | None = None,
    max_time: float = 10_000.0,
) -> FloodingResult:
    """Run Definition 4.2 flooding on a Poisson dynamic network.

    Args:
        network: a warm :class:`PoissonNetwork` (PDG or PDGR); any other
            driver raises :class:`~repro.errors.ConfigurationError`.
        source: initially informed node; defaults to the youngest alive.
        max_time: give up after this much simulated time past the start.

    Returns:
        A :class:`FloodingResult`; ``informed_sizes`` samples the informed
        set at unit-time boundaries, ``completion_round`` holds the
        ceiling of the (continuous) completion time offset.
    """
    if not isinstance(network, PoissonNetwork):
        raise ConfigurationError(
            "asynchronous flooding interleaves with the Poisson jump "
            f"chain and needs a PoissonNetwork, got {type(network).__name__}"
        )
    state = network.state
    source, _ = initial_informed(network, source)

    start = network.now
    deadline = start + max_time
    engine = EventEngine()
    informed: set[int] = set()
    alive_informed = 0
    result = FloodingResult(source=source, start_time=start)

    def inform(node: int, at: float) -> None:
        nonlocal alive_informed
        informed.add(node)
        alive_informed += 1
        for neighbor in state.neighbors(node):
            engine.schedule(at + 1.0, _Delivery(sender=node, target=neighbor))

    inform(source, start)
    result.record_round(1, state.num_alive())
    next_sample = start + 1.0

    # The pending churn jump (absolute time + kind), sampled lazily so
    # message deliveries can be interleaved at their exact times.
    jump = network.chain.next_event(network.num_alive(), network.rng)
    jump_time = network.now + jump.dt

    while True:
        delivery_time = engine.peek_time()
        next_time = jump_time if delivery_time is None else min(delivery_time, jump_time)
        if next_time > deadline:
            break

        # Record unit-time samples of the trajectory.
        while next_sample <= next_time:
            result.record_round(alive_informed, state.num_alive())
            next_sample += 1.0

        if delivery_time is not None and delivery_time <= jump_time:
            event = engine.pop()
            network.clock.advance_to(event.time)
            message: _Delivery = event.payload
            if (
                message.target not in informed
                and state.is_alive(message.sender)
                and state.is_alive(message.target)
                and state.has_edge(message.sender, message.target)
            ):
                inform(message.target, event.time)
                if alive_informed == state.num_alive():
                    result.completed = True
                    offset = event.time - start
                    result.completion_round = int(offset) + (offset % 1.0 > 0)
                    result.record_round(alive_informed, state.num_alive())
                    return result
        else:
            network.clock.advance_to(jump_time)
            record = network.apply_churn(jump.is_birth)
            if record.is_death:
                alive_informed -= sum(
                    1 for nid in record.node_ids if nid in informed
                )
            for edge in record.edges_created:
                u, v = edge.endpoints()
                if (u in informed) != (v in informed):
                    sender = u if u in informed else v
                    target = v if u in informed else u
                    engine.schedule(network.now + 1.0, _Delivery(sender, target))
            if informed and alive_informed == state.num_alive():
                # A death removed the last uninformed node.
                result.completed = True
                offset = network.now - start
                result.completion_round = int(offset) + (offset % 1.0 > 0)
                result.record_round(alive_informed, state.num_alive())
                return result
            if alive_informed == 0:
                result.extinct = True
                result.extinction_round = result.rounds_run
                result.record_round(0, state.num_alive())
                return result
            jump = network.chain.next_event(network.num_alive(), network.rng)
            jump_time = network.now + jump.dt

    result.record_round(alive_informed, state.num_alive())
    return result
