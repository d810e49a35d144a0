"""Streaming-cadence networks with adversarial victim selection (extension).

Same churn *rate* as the streaming model (one birth and one death per
round, constant size n) but the victim is chosen by a topology-aware
strategy from :mod:`repro.churn.adversarial` instead of deterministic
age.  Used by EXP-16 to measure how the paper's oblivious-churn guarantees
degrade under targeted deletions.

Note that with non-oldest victims, node lifetimes are no longer exactly
``n`` — the *rate* is preserved, the schedule is not.  That is exactly the
comparison of interest.
"""

from __future__ import annotations

from repro.churn.adversarial import VictimStrategy, get_strategy
from repro.core.backend import GraphBackend
from repro.core.edge_policy import EdgePolicy
from repro.errors import ConfigurationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.util.rng import SeedLike


class AdversarialStreamingNetwork(DynamicNetwork):
    """Constant-size network whose deaths are strategy-chosen.

    Args:
        n: constant network size.
        policy: edge policy (regen or no-regen).
        strategy: victim strategy name (see churn.adversarial.STRATEGIES)
            or a callable ``(state, rng) -> node_id``.
        seed: RNG seed.
        warm: run the n warm-up birth rounds immediately.
    """

    def __init__(
        self,
        n: int,
        policy: EdgePolicy,
        strategy: str | VictimStrategy = "max_degree",
        seed: SeedLike = None,
        warm: bool = True,
        backend: str | GraphBackend | None = None,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"need n >= 2, got {n}")
        super().__init__(policy, seed, backend=backend)
        self.n = n
        self.round_number = 0
        self.victim_strategy: VictimStrategy = (
            get_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        if warm:
            self._pure_birth_rounds(0, n, exact=True)
            self.round_number = n

    def advance_round(self) -> RoundReport:
        """One round: strategy-chosen death (once full), then a birth."""
        self.round_number += 1
        start = self.now
        self.clock.advance_to(float(self.round_number))
        report = RoundReport(start_time=start, end_time=self.now)

        if self.num_alive() >= self.n:
            victim = self.victim_strategy(self.state, self.rng)
            report.events.append(
                self.policy.handle_death(self.state, victim, self.now, self.rng)
            )

        birth_id = self.state.allocate_id()
        report.events.append(
            self.policy.handle_birth(self.state, birth_id, self.now, self.rng)
        )
        return report
