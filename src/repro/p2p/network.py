"""The Bitcoin-like overlay simulator.

A :class:`BitcoinLikeNetwork` is a :class:`~repro.models.base.DynamicNetwork`
(so every flooding process and analysis in the library runs on it
unchanged) with the engineering realities the PDGR model abstracts away:

* node churn is the same Poisson jump chain as PDGR;
* a joining node learns addresses from a *DNS seed* (a uniform sample of
  alive nodes) instead of magically knowing the whole network;
* it dials peers from its address manager up to ``target_outbound`` (8),
  and accepts at most ``max_inbound`` (125) connections;
* a failed dial (dead address) evicts the address and retries;
* when a neighbour dies, the lost out-slot is *not* regenerated instantly:
  the node re-dials during the next maintenance tick (once per time unit);
* once per tick every node gossips a few known addresses to a random
  neighbour (``addr`` messages), keeping tables "sufficiently random".

EXP-14 checks this engineered overlay matches PDGR's qualitative claims.
"""

from __future__ import annotations

from repro.churn.poisson import PoissonJumpChain
from repro.core.backend import GraphBackend
from repro.core.edge_policy import EdgePolicy
from repro.errors import ConfigurationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.p2p.addrman import AddressManager
from repro.sim.events import EdgeCreated, EventRecord, NodeBorn, NodeDied
from repro.util.rng import SeedLike


class _ManualPolicy(EdgePolicy):
    """Placeholder policy: the network drives all edge decisions itself."""

    def repair_orphans(self, state, orphaned, time, rng, record) -> None:
        del state, orphaned, time, rng, record  # re-dialling happens at ticks


class BitcoinLikeNetwork(DynamicNetwork):
    """Poisson churn + addrman-driven topology maintenance.

    Args:
        n: expected network size (λ=1, µ=1/n as in the paper).
        target_outbound: out-degree target (Bitcoin Core default 8).
        max_inbound: in-degree cap (Bitcoin Core default 125).
        dns_seed_size: addresses handed to a joining node.
        addr_capacity: address-manager table size.
        gossip_fanout: addresses pushed per tick per node.
        dial_attempts: dial retries per missing slot per tick.
        seed: RNG seed.
        warm_time: churn time simulated before hand-over (default 3n).
    """

    def __init__(
        self,
        n: float,
        target_outbound: int = 8,
        max_inbound: int = 125,
        dns_seed_size: int = 16,
        addr_capacity: int = 256,
        gossip_fanout: int = 8,
        dial_attempts: int = 4,
        seed: SeedLike = None,
        warm_time: float | None = None,
        backend: str | GraphBackend | None = None,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"need n >= 2, got {n}")
        if target_outbound < 1:
            raise ConfigurationError("target_outbound must be >= 1")
        super().__init__(_ManualPolicy(target_outbound), seed, backend=backend)
        self.n = float(n)
        self.chain = PoissonJumpChain(lam=1.0, n=n)
        self.max_inbound = max_inbound
        self.dns_seed_size = dns_seed_size
        self.addr_capacity = addr_capacity
        self.gossip_fanout = gossip_fanout
        self.dial_attempts = dial_attempts
        self.addrmans: dict[int, AddressManager] = {}
        self.event_count = 0
        self.failed_dials = 0
        self.successful_dials = 0
        if warm_time is None:
            warm_time = 3.0 * float(n)
        ticks = int(warm_time)
        for _ in range(ticks):
            self.advance_round()

    # ------------------------------------------------------------------
    # DynamicNetwork interface
    # ------------------------------------------------------------------

    def advance_round(self) -> RoundReport:
        """One unit of time: churn events, then a maintenance tick."""
        start = self.now
        target = start + 1.0
        report = RoundReport(start_time=start, end_time=target)
        while True:
            jump = self.chain.next_event(self.num_alive(), self.rng)
            event_time = self.now + jump.dt
            if event_time > target:
                self.clock.advance_to(target)
                break
            self.clock.advance_to(event_time)
            report.events.append(self._apply_churn(jump.is_birth))
        self._maintenance_tick()
        return report

    # ------------------------------------------------------------------
    # churn handling
    # ------------------------------------------------------------------

    def _apply_churn(self, is_birth: bool) -> EventRecord:
        self.event_count += 1
        if is_birth or self.num_alive() == 0:
            return self._handle_join()
        victim = self.state.sample_alive(self.rng)
        return self._handle_leave(victim)

    def _handle_join(self) -> EventRecord:
        node_id = self.state.allocate_id()
        self.state.add_node(node_id, birth_time=self.now, num_slots=self.policy.d)
        record = EventRecord(time=self.now, kind=NodeBorn(node_id=node_id))
        addrman = AddressManager(node_id, capacity=self.addr_capacity)
        self.addrmans[node_id] = addrman
        # DNS bootstrap: a uniform sample of currently-alive nodes.
        seeds = self.state.sample_targets(self.rng, self.dns_seed_size, exclude=node_id)
        addrman.add_many(seeds, self.rng)
        self._dial_missing_slots(node_id, record)
        return record

    def _handle_leave(self, node_id: int) -> EventRecord:
        record = EventRecord(time=self.now, kind=NodeDied(node_id=node_id))
        from repro.sim.events import EdgeDestroyed

        for neighbor in sorted(self.state.neighbors(node_id)):
            record.edges_destroyed.append(EdgeDestroyed(node_id, neighbor))
        self.state.remove_node(node_id, death_time=self.now)
        self.addrmans.pop(node_id, None)
        # Peers that lost an outbound slot re-dial at the next tick.
        return record

    # ------------------------------------------------------------------
    # maintenance: re-dialling and addr gossip
    # ------------------------------------------------------------------

    def _maintenance_tick(self) -> None:
        for node_id in self.state.alive_ids():
            record = EventRecord(time=self.now, kind=NodeBorn(node_id=node_id))
            self._dial_missing_slots(node_id, record)
        self._gossip_addresses()

    def _dial_missing_slots(self, node_id: int, record: EventRecord) -> None:
        addrman = self.addrmans[node_id]
        slots = self.state.out_slots_of(node_id)
        for slot_index, current in enumerate(slots):
            if current is not None:
                continue
            for _ in range(self.dial_attempts):
                address = addrman.sample(self.rng)
                if address is None:
                    break
                if not self.state.is_alive(address):
                    addrman.remove(address)  # stale address: evict, retry
                    self.failed_dials += 1
                    continue
                if address == node_id:
                    continue
                if self.state.in_slot_count(address) >= self.max_inbound:
                    self.failed_dials += 1
                    continue  # peer is full
                self.state.assign_slot(node_id, slot_index, address)
                record.edges_created.append(
                    EdgeCreated(source=node_id, target=address)
                )
                self.successful_dials += 1
                break

    def _gossip_addresses(self) -> None:
        """Each node pushes a few known addresses to one random neighbour."""
        for node_id in self.state.alive_ids():
            peer = self.state.random_neighbor(node_id, self.rng)
            if peer is None:
                continue
            payload = self.addrmans[node_id].advertise(self.rng, self.gossip_fanout)
            payload.append(node_id)  # self-advertisement, as in Bitcoin
            peer_addrman = self.addrmans.get(peer)
            if peer_addrman is not None:
                peer_addrman.add_many(payload, self.rng)
