"""Generalized continuous-time model: arbitrary lifetime distributions.

The paper's Poisson model is the special case of exponential lifetimes;
its intro argues the results "should be robust to different modelling
choices".  This driver keeps everything else fixed — Poisson(λ) births,
the same edge policies — but draws each node's lifetime from any
:class:`~repro.churn.lifetime.LifetimeDistribution`, scheduling deaths on
an event queue (non-memoryless lifetimes genuinely need per-node timers,
unlike the jump-chain shortcut of :class:`~repro.models.poisson.PoissonNetwork`).

EXP-17 uses this to stress-test the paper's dichotomy under heavy-tailed
(Weibull k<1, Pareto) session lengths.
"""

from __future__ import annotations

from repro.churn.lifetime import ExponentialLifetime, LifetimeDistribution
from repro.core.backend import GraphBackend
from repro.core.edge_policy import (
    EdgePolicy,
    NoRegenerationPolicy,
    RegenerationPolicy,
)
from repro.errors import ConfigurationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.sim.engine import EventEngine
from repro.sim.events import EventRecord, NodesBorn
from repro.util.rng import SeedLike


class GeneralChurnNetwork(DynamicNetwork):
    """Poisson(λ) births + per-node lifetimes from *lifetime* distribution.

    Args:
        lifetime: the node-lifetime distribution; its mean plays the role
            of the paper's ``n`` (expected stationary size = λ · mean).
        policy: edge policy (regen / no-regen / capped).
        lam: birth rate λ (default 1, as in the paper).
        seed: RNG seed.
        warm_time: churn time to simulate before handing over (default
            3 × expected size, mirroring Lemma 4.4's horizon).
        fast_warm: warm through :meth:`advance_to_time_batched` (grouped
            births/deaths) instead of per-event application.  Same churn
            law, different seeded trajectory (the same on every backend).
    """

    def __init__(
        self,
        lifetime: LifetimeDistribution,
        policy: EdgePolicy,
        lam: float = 1.0,
        seed: SeedLike = None,
        warm_time: float | None = None,
        backend: str | GraphBackend | None = None,
        fast_warm: bool = False,
    ) -> None:
        if lam <= 0:
            raise ConfigurationError(f"lam must be positive, got {lam}")
        super().__init__(policy, seed, backend=backend)
        self.lifetime = lifetime
        self.lam = float(lam)
        self.deaths = EventEngine()
        self.event_count = 0
        self._next_birth_time = float(self.rng.exponential(1.0 / self.lam))
        if warm_time is None:
            warm_time = 3.0 * self.expected_size()
        if warm_time > 0:
            if fast_warm:
                self.advance_to_time_batched(
                    warm_time, window=max(1.0, self.expected_size() / 8.0)
                )
            else:
                self.advance_to_time(warm_time)

    def expected_size(self) -> float:
        """Stationary expected network size λ · E[lifetime] (Little's law)."""
        return self.lam * self.lifetime.mean

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------

    def advance_to_time(self, target: float) -> list[EventRecord]:
        """Apply all births and scheduled deaths up to *target*."""
        records: list[EventRecord] = []
        while True:
            next_death = self.deaths.peek_time()
            next_time = self._next_birth_time
            is_birth = True
            if next_death is not None and next_death < next_time:
                next_time = next_death
                is_birth = False
            if next_time > target:
                self.clock.advance_to(target)
                return records
            self.clock.advance_to(next_time)
            if is_birth:
                records.append(self._apply_birth())
            else:
                records.append(self._apply_death())

    def advance_round(self) -> RoundReport:
        """Advance one unit of continuous time."""
        start = self.now
        events = self.advance_to_time(start + 1.0)
        return RoundReport(start_time=start, end_time=self.now, events=events)

    #: Batched windows (:meth:`DynamicNetwork.advance_to_time_batched`):
    #: per window, the Poisson(λ) birth times are drawn exactly, all
    #: births are applied through one
    #: :meth:`~repro.core.edge_policy.EdgePolicy.handle_births` batch (each
    #: newborn gets a lifetime and a scheduled death, as on the per-event
    #: path), then every death scheduled inside the window — including
    #: short-lived same-window newborns — is applied through one
    #: :meth:`~repro.core.edge_policy.EdgePolicy.handle_deaths` call.
    #: Like the Poisson driver's batched path, the within-window
    #: birth/death interleaving is approximated (births before deaths),
    #: vanishing as ``window → 0``; the birth process and every lifetime
    #: follow the exact law.
    supports_batched_advance = True

    def _advance_window_batched(self, target: float, report: RoundReport) -> None:
        """Apply one grouped-churn window ending at *target*."""
        birth_times: list[float] = []
        while self._next_birth_time <= target:
            birth_times.append(self._next_birth_time)
            self._next_birth_time += float(self.rng.exponential(1.0 / self.lam))
        if birth_times:
            node_ids = self.state.allocate_ids(len(birth_times))
            self.policy.handle_births(self.state, node_ids, birth_times, self.rng)
            for node_id, born_at in zip(node_ids, birth_times):
                self.deaths.schedule(
                    born_at + self.lifetime.sample(self.rng), node_id
                )
            self.event_count += len(node_ids)
            report.events.append(
                EventRecord(time=target, kind=NodesBorn(node_ids=tuple(node_ids)))
            )
        victims: list[int] = []
        while True:
            next_death = self.deaths.peek_time()
            if next_death is None or next_death > target:
                break
            victims.append(self.deaths.pop().payload)
        if victims:
            self.event_count += len(victims)
            report.events.append(
                self.policy.handle_deaths(self.state, victims, target, self.rng)
            )
        self.clock.advance_to(target)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _apply_birth(self) -> EventRecord:
        self.event_count += 1
        node_id = self.state.allocate_id()
        record = self.policy.handle_birth(self.state, node_id, self.now, self.rng)
        life = self.lifetime.sample(self.rng)
        self.deaths.schedule(self.now + life, node_id)
        self._next_birth_time = self.now + float(
            self.rng.exponential(1.0 / self.lam)
        )
        return record

    def _apply_death(self) -> EventRecord:
        self.event_count += 1
        event = self.deaths.pop()
        node_id: int = event.payload
        return self.policy.handle_death(self.state, node_id, self.now, self.rng)


def GDG(
    lifetime: LifetimeDistribution,
    d: int,
    lam: float = 1.0,
    seed: SeedLike = None,
    warm_time: float | None = None,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> GeneralChurnNetwork:
    """Generalized dynamic graph without edge regeneration."""
    return GeneralChurnNetwork(
        lifetime, NoRegenerationPolicy(d), lam=lam, seed=seed,
        warm_time=warm_time, backend=backend, fast_warm=fast_warm,
    )


def GDGR(
    lifetime: LifetimeDistribution,
    d: int,
    lam: float = 1.0,
    seed: SeedLike = None,
    warm_time: float | None = None,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> GeneralChurnNetwork:
    """Generalized dynamic graph with edge regeneration."""
    return GeneralChurnNetwork(
        lifetime, RegenerationPolicy(d), lam=lam, seed=seed,
        warm_time=warm_time, backend=backend, fast_warm=fast_warm,
    )


def exponential_reference(
    n: float,
    d: int,
    seed: SeedLike = None,
    backend: str | GraphBackend | None = None,
) -> GeneralChurnNetwork:
    """The paper's PDGR expressed in the generalized driver (for testing
    that the two drivers agree statistically)."""
    return GDGR(ExponentialLifetime(n), d=d, seed=seed, backend=backend)
