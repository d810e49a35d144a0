"""Poisson dynamic graphs: PDG (Def. 4.9) and PDGR (Def. 4.14).

The driver simulates the churn jump chain of Lemma 4.6 (see
:class:`~repro.churn.poisson.PoissonJumpChain`): events are node births
(rate λ) and node deaths (each alive node at rate µ).  Edge consequences
are delegated to the edge policy, exactly as in the streaming driver.

Because inter-event times are exponential and rates only change at events,
``advance_to_time`` can discard an overshooting waiting time and resume
fresh at the target time (memorylessness), which keeps rounds exact.
"""

from __future__ import annotations

import math

from repro.churn.poisson import PoissonJumpChain
from repro.core.backend import GraphBackend
from repro.core.edge_policy import (
    EdgePolicy,
    NoRegenerationPolicy,
    RegenerationPolicy,
)
from repro.errors import ConfigurationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.sim.events import EventRecord, NodesBorn
from repro.util.rng import SeedLike


class PoissonNetwork(DynamicNetwork):
    """Driver for the Poisson models (shared by PDG and PDGR).

    Args:
        n: the paper's ``n = λ/µ`` (expected stationary size).
        policy: edge policy (no-regen for PDG, regen for PDGR).
        lam: birth rate λ (the paper fixes λ = 1 w.l.o.g.).
        seed: RNG seed.
        warm_time: simulate this much time before handing the network to
            the caller; the default ``3n`` is the horizon after which
            Lemma 4.4 guarantees |N_t| = Θ(n) w.h.p.  Pass 0 to start
            from the empty network.
        fast_warm: warm through :meth:`advance_to_time_batched` (grouped
            births/deaths) instead of per-event application.  Same churn
            law, *different seeded trajectory* (the same on every
            backend) — leave False when bit-identical trajectories
            against a per-event run matter.
    """

    def __init__(
        self,
        n: float,
        policy: EdgePolicy,
        lam: float = 1.0,
        seed: SeedLike = None,
        warm_time: float | None = None,
        backend: str | GraphBackend | None = None,
        fast_warm: bool = False,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"Poisson model needs n >= 2, got {n}")
        super().__init__(policy, seed, backend=backend)
        self.n = float(n)
        self.chain = PoissonJumpChain(lam=lam, n=n)
        self.event_count = 0  # the jump-chain round index r of Definition 4.5
        if warm_time is None:
            warm_time = 3.0 * float(n)
        if warm_time > 0:
            if fast_warm:
                self.advance_to_time_batched(warm_time, window=max(1.0, self.n / 8.0))
            else:
                self.advance_to_time(warm_time)

    def advance_one_event(self) -> EventRecord:
        """Apply exactly one churn event (one jump-chain round)."""
        jump = self.chain.next_event(self.num_alive(), self.rng)
        self.clock.advance_by(jump.dt)
        return self.apply_churn(jump.is_birth)

    def advance_to_time(self, target: float) -> list[EventRecord]:
        """Apply every event up to absolute time *target*; clock ends there."""
        records: list[EventRecord] = []
        while True:
            jump = self.chain.next_event(self.num_alive(), self.rng)
            event_time = self.now + jump.dt
            if event_time > target:
                # Memorylessness: conditional on no event before `target`,
                # the process restarts fresh at `target`.
                self.clock.advance_to(target)
                return records
            self.clock.advance_to(event_time)
            records.append(self.apply_churn(jump.is_birth))

    def advance_rounds_jump(self, count: int) -> list[EventRecord]:
        """Apply exactly *count* jump-chain events (Definition 4.5 rounds)."""
        return [self.advance_one_event() for _ in range(count)]

    #: Batched windows (:meth:`DynamicNetwork.advance_to_time_batched`):
    #: per window, the jump chain of Lemma 4.6 is simulated exactly (it
    #: only needs the alive *count*), then all of the window's births are
    #: applied through one
    #: :meth:`~repro.core.edge_policy.EdgePolicy.handle_births` batch and all
    #: of its deaths through one
    #: :meth:`~repro.core.edge_policy.EdgePolicy.handle_deaths` call on a
    #: uniform without-replacement victim set.  The size process follows
    #: the exact churn law and each birth still samples its targets among
    #: the nodes present at its join (earlier newborns of the window
    #: included).  What is approximated is the within-window
    #: interleaving: births are applied before deaths, so a birth may
    #: target a node that "already" died inside the same window and
    #: regenerated requests never land on same-window victims.  The
    #: approximation vanishes as ``window → 0`` and is the same trade as
    #: ``StreamingNetwork(fast_warm=True)``.
    supports_batched_advance = True

    def _advance_window_batched(self, target: float, report: RoundReport) -> None:
        """Apply one grouped-churn window ending at *target*."""
        # 1. Simulate the jump chain exactly (sizes only, no topology).
        alive = self.num_alive()
        birth_times: list[float] = []
        death_count = 0
        now = self.now
        while True:
            jump = self.chain.next_event(alive, self.rng)
            event_time = now + jump.dt
            if event_time > target:
                break
            now = event_time
            self.event_count += 1
            if jump.is_birth or alive == 0:
                birth_times.append(event_time)
                alive += 1
            else:
                death_count += 1
                alive -= 1
        # 2. Births as one batch: newborn k samples its targets among the
        #    window-start population plus the earlier newborns, the same
        #    candidate pool as the sequential path.
        if birth_times:
            node_ids = self.state.allocate_ids(len(birth_times))
            self.policy.handle_births(self.state, node_ids, birth_times, self.rng)
            report.events.append(
                EventRecord(time=target, kind=NodesBorn(node_ids=tuple(node_ids)))
            )
        # 3. Deaths as one batch of uniform without-replacement victims
        #    (newborns of the same window are eligible, as in the chain).
        if death_count:
            candidates = self.state.alive_ids()
            picks = self.rng.choice(
                len(candidates), size=min(death_count, len(candidates)), replace=False
            )
            victims = [candidates[int(i)] for i in picks]
            report.events.append(
                self.policy.handle_deaths(self.state, victims, target, self.rng)
            )
        self.clock.advance_to(target)

    def advance_round(self) -> RoundReport:
        """Advance one unit of continuous time (one flooding round)."""
        start = self.now
        events = self.advance_to_time(start + 1.0)
        return RoundReport(start_time=start, end_time=self.now, events=events)

    def apply_churn(self, is_birth: bool) -> EventRecord:
        """Apply one churn event of the given kind at the current clock time.

        Low-level hook used by the asynchronous flooding process, which
        samples jump times itself so it can interleave message deliveries
        with churn; normal callers should use :meth:`advance_one_event`.
        """
        self.event_count += 1
        if is_birth or self.num_alive() == 0:
            # A death event drawn on an empty network is impossible
            # (death rate 0); the guard keeps the driver robust anyway.
            node_id = self.state.allocate_id()
            return self.policy.handle_birth(self.state, node_id, self.now, self.rng)
        victim = self.state.sample_alive(self.rng)
        return self.policy.handle_death(self.state, victim, self.now, self.rng)


def PDG(
    n: float,
    d: int,
    seed: SeedLike = None,
    lam: float = 1.0,
    warm_time: float | None = None,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> PoissonNetwork:
    """Poisson Dynamic Graph without edge regeneration (Definition 4.9)."""
    return PoissonNetwork(
        n, NoRegenerationPolicy(d), lam=lam, seed=seed, warm_time=warm_time,
        backend=backend, fast_warm=fast_warm,
    )


def PDGR(
    n: float,
    d: int,
    seed: SeedLike = None,
    lam: float = 1.0,
    warm_time: float | None = None,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> PoissonNetwork:
    """Poisson Dynamic Graph with edge regeneration (Definition 4.14)."""
    return PoissonNetwork(
        n, RegenerationPolicy(d), lam=lam, seed=seed, warm_time=warm_time,
        backend=backend, fast_warm=fast_warm,
    )


def lifetime_age_bound(n: float) -> float:
    """The ``7 n log n`` age horizon of Lemma 4.8 (in jump-chain rounds)."""
    return 7.0 * n * math.log(n)
