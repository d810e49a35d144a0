"""Threshold-driven streaming dynamic graphs.

A streaming-cadence churn whose *departures are driven by the topology*
instead of an age clock, after the threshold-driven streaming graphs of
Angileri, Clementi, Natale, Salvi, Ziccardi (2025, arXiv:2507.23533):
where the paper's SDG retires the node born exactly ``n`` rounds ago,
here a node leaves the network as soon as its connectivity falls below a
*degree threshold* — churn and edge dynamics are coupled, which is the
regime the threshold-driven analysis studies.

.. note::
    The exact round mechanics below are this library's adaptation of
    that model family onto the shared driver interface (the reference
    paper could not be consulted while writing this module): it keeps
    the one-birth-per-round streaming cadence and expresses the
    threshold rule through the pluggable edge policies, so every
    existing policy (``none``/``regen``/``capped``/``raes``) composes
    with threshold-driven departures.

One round, for round number ``r > n`` (the first ``n`` rounds are the
usual pure-birth warm-up of Definition 3.2):

1. a new node is **born** and issues its ``d`` requests through the edge
   policy (uniform among the nodes present);
2. the **threshold sweep** runs: every alive node — except the newborn,
   which gets one round of grace to attract in-links — whose distinct-
   neighbour degree is below ``threshold`` departs, in ascending-id
   order; each departure destroys its incident edges (and triggers the
   policy's orphan repair), which can push further nodes below the
   threshold — the sweep cascades until no examined node is
   sub-threshold.

The sweep re-examines only nodes whose degree can have dropped (last
round's newborn, plus the former neighbours of this round's victims),
so a quiet round costs O(1) beyond the birth.  The round-end invariant
— every alive node except the current newborn has degree ≥ threshold —
is what the tests pin down.

Regimes worth knowing (measured, not just asserted): with a threshold
``< d`` departures are rare — regeneration (or the steady in-flow of
newborn requests) keeps degrees at or above d, so the network grows one
node per round and churn is limited to the occasional decayed
straggler.  At ``threshold = d`` the no-regeneration dynamic grows
while continuously shedding the nodes whose request placements
collapsed (duplicate targets, dead destinations) — growth with genuine
threshold departures.  At ``threshold = d + 1`` with regeneration every
node must hold an in-link on top of its own d requests: the first sweep
prunes the warm-up graph to its ``(d+1)``-core, whose size then
self-regulates — newborns keep arriving and are bounced at the end of
their grace round unless the core adopts them, a stationary size with a
revolving door of arrivals.  Far larger thresholds are subcritical and
cascade to collapse.  The per-event path is bit-identical across
topology backends, like every other driver.
"""

from __future__ import annotations

import heapq

from repro.core.backend import GraphBackend
from repro.core.edge_policy import EdgePolicy
from repro.errors import ConfigurationError, SimulationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.sim.events import EventRecord, NodesBorn
from repro.util.rng import SeedLike
from repro.util.sampling import birth_batch_draws

import numpy as np


def default_threshold(d: int) -> int:
    """The default degree threshold for out-degree *d*.

    ``max(1, d // 2)`` — nodes tolerate losing about half their d
    requests before departing, which keeps the no-regeneration dynamic
    supercritical at moderate d.  Shared by :func:`TSDG` and the
    scenario registry's ``churn="threshold"`` builder so the two entry
    points can never diverge.
    """
    return max(1, d // 2)


class ThresholdStreamingNetwork(DynamicNetwork):
    """Streaming births with degree-threshold departures.

    Args:
        n: warm-up size (the number of pure-birth rounds run before the
            threshold dynamics start; unlike SDG it is *not* a lifetime
            — the stationary size is set by the threshold dynamics).
        policy: edge policy (requests per birth, repair at death).
        threshold: minimum distinct-neighbour degree an alive node must
            keep; anything below departs in the round's sweep.
        seed: RNG seed.
        warm: apply the ``n`` warm-up birth rounds immediately
            (default), as one batch bit-identical to ``n`` per-event
            births — exactly like the streaming driver's warm-up.
        backend: topology backend (see :class:`~repro.models.base.DynamicNetwork`).
        fast_warm: draw the warm-up births in one call instead (same
            distribution, a different RNG stream that is the same on
            every backend — exactly like the other drivers' fast_warm).
    """

    def __init__(
        self,
        n: int,
        policy: EdgePolicy,
        threshold: int,
        seed: SeedLike = None,
        warm: bool = True,
        backend: str | GraphBackend | None = None,
        fast_warm: bool = False,
    ) -> None:
        if n < 2:
            raise ConfigurationError(
                f"threshold streaming model needs n >= 2, got {n}"
            )
        if threshold < 1:
            raise ConfigurationError(
                f"degree threshold must be >= 1, got {threshold}"
            )
        super().__init__(policy, seed, backend=backend)
        self.n = n
        self.threshold = int(threshold)
        self.round_number = 0
        #: The first post-warm sweep must examine everybody (warm-up
        #: leaves low-degree nodes behind); later sweeps are incremental.
        self._swept_all = False
        #: Last round's newborn: exempt from its birth-round sweep (one
        #: round of grace to attract in-links), examined the round after.
        self._grace_id: int | None = None
        if warm:
            self._pure_birth_rounds(0, n, exact=not fast_warm)
            self.round_number = n

    # ------------------------------------------------------------------
    # the threshold round
    # ------------------------------------------------------------------

    def advance_round(self) -> RoundReport:
        """One round: birth, then the cascading threshold sweep."""
        self.round_number += 1
        start = self.now
        self.clock.advance_to(float(self.round_number))
        report = RoundReport(start_time=start, end_time=self.now)

        birth_id = self.state.allocate_id()
        report.events.append(
            self.policy.handle_birth(self.state, birth_id, self.now, self.rng)
        )

        if self._swept_all:
            # Degrees only drop when an incident edge dies, so between
            # sweeps only the node leaving its grace round needs a
            # fresh look.
            candidates = (
                set() if self._grace_id is None else {self._grace_id}
            )
        else:
            candidates = set(self.state.alive_ids())
            self._swept_all = True
        candidates.discard(birth_id)
        self._grace_id = birth_id
        self._sweep(candidates, report, exempt=birth_id)
        return report

    def _sweep(
        self, candidates: set[int], report: RoundReport, exempt: int
    ) -> None:
        """Retire every sub-threshold node, cascading deterministically.

        Candidates are processed in ascending-id order, kept in a heap
        with a membership set beside it; a departure enqueues its former
        neighbours (their degree just dropped), except the *exempt*
        newborn still in its grace round.  The loop terminates because
        every death strictly shrinks the alive set.
        """
        state = self.state
        queue = sorted(candidates)  # a sorted list is a heap
        while queue:
            node_id = heapq.heappop(queue)
            candidates.discard(node_id)
            if not state.is_alive(node_id):
                continue
            if state.degree(node_id) >= self.threshold:
                continue
            neighbors = set(state.neighbors(node_id))
            record = self.policy.handle_death(
                state, node_id, self.now, self.rng
            )
            report.events.append(record)
            for neighbor in neighbors:
                if (
                    neighbor != exempt
                    and neighbor not in candidates
                    and state.is_alive(neighbor)
                ):
                    candidates.add(neighbor)
                    heapq.heappush(queue, neighbor)

    # ------------------------------------------------------------------
    # fused windows (verified pure-birth prefixes)
    # ------------------------------------------------------------------

    supports_batched_advance = True

    #: Per-chunk cap on the speculative draw batch of a fused window.
    _FUSED_CHUNK_CAP = 8192

    def _advance_window_batched(self, target: float, report: RoundReport) -> None:
        """One fused window where the per-round law permits.

        The threshold round is a uniform birth followed by one incremental
        exam (last round's newborn leaves its grace); as long as every
        exam *passes*, a run of rounds is pure births — fully committable
        upfront.  The fuser draws a chunk of prospective birth targets
        from a canonical pool (ascending alive ids, then newborns in
        birth order), computes each exam's degree from the drawn targets
        alone (valid precisely because no deaths occur in a passing
        prefix), commits the verified prefix through
        ``apply_birth_slots``, and re-runs the first failing round — and
        any round whose law the fuser cannot verify (first post-warm
        sweep, bounded-degree policies) — through the per-event path with
        fresh draws.  Same law, bit-identical across backends within the
        fused path, but unlike the streaming kernel a different seeded
        trajectory than the per-event path.
        """
        span = target - self.now
        rounds = int(round(span))
        if abs(span - rounds) > 1e-9:
            raise SimulationError(
                "threshold windows must cover whole rounds; got a span "
                f"of {span} rounds"
            )
        while rounds > 0:
            fusable = (
                self._swept_all
                and self._grace_id is not None
                and self.policy.supports_batch_birth
                and self.num_alive() >= 1
            )
            committed = 0
            if fusable:
                committed = self._fused_birth_run(
                    min(rounds, self._FUSED_CHUNK_CAP), report
                )
            if committed == 0:
                report.extend(self.advance_round())
                rounds -= 1
            else:
                rounds -= committed
        if target > self.now:
            self.clock.advance_to(target)

    def _fused_birth_run(self, limit: int, report: RoundReport) -> int:
        """Commit the longest verified pure-birth prefix (≤ *limit* rounds).

        Round ``k`` of the chunk births ``B_k`` (uniform ``d`` targets
        among the ``m0 + k - 1`` nodes present) and examines the previous
        grace node: its exam degree is its distinct drawn targets plus
        one if ``B_k`` targeted it (for the pre-chunk grace node, its
        live degree plus the same correction) — nothing else can have
        changed it while no deaths occur.  Returns the number of rounds
        committed (0 = the very first exam fails; the caller re-runs it
        per-event).
        """
        W = int(limit)
        m0 = self.num_alive()
        d = self.d
        pool = np.array(sorted(self.state.alive_ids()), dtype=np.int64)
        next_id = self.state.peek_next_id()
        offsets = birth_batch_draws(self.rng, m0 + 1, W, d)

        # Exam degrees, entirely from the draws: distinct targets per
        # newborn, plus the single possible in-link from the next round's
        # newborn (pool index of B_{k-1} is m0 + k - 2).
        sorted_offsets = np.sort(offsets, axis=1)
        distinct = 1 + np.count_nonzero(
            np.diff(sorted_offsets, axis=1) != 0, axis=1
        )
        passes = np.empty(W, dtype=bool)
        grace = self._grace_id
        grace_pos = int(np.searchsorted(pool, grace))
        grace_degree = self.state.degree(grace) + int(
            bool(np.any(offsets[0] == grace_pos))
        )
        passes[0] = grace_degree >= self.threshold
        if W > 1:
            hits = np.any(
                offsets[1:] == (m0 + np.arange(W - 1, dtype=np.int64))[:, None],
                axis=1,
            )
            passes[1:] = (distinct[:-1] + hits) >= self.threshold
        failing = np.nonzero(~passes)[0]
        committed = W if failing.size == 0 else int(failing[0])
        if committed == 0:
            return 0

        node_ids = self.state.allocate_ids(committed)
        if node_ids[0] != next_id:
            raise SimulationError(
                f"id drift: allocated {node_ids[0]}, expected {next_id}"
            )
        table = np.concatenate(
            [pool, np.asarray(node_ids, dtype=np.int64)]
        )
        targets = table[offsets[:committed]]
        times = np.arange(
            self.round_number + 1,
            self.round_number + committed + 1,
            dtype=np.float64,
        )
        self.state.apply_birth_slots(node_ids, times, targets)
        self.round_number += committed
        self.clock.advance_to(float(self.round_number))
        self._grace_id = node_ids[-1]
        report.events.append(
            EventRecord(time=self.now, kind=NodesBorn(node_ids=tuple(node_ids)))
        )
        return committed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def check_threshold_invariant(self) -> None:
        """Raise unless every alive node meets the degree threshold.

        The current newborn (still in its grace round) is exempt.  Only
        meaningful once a sweep has run — the warm-up deliberately
        leaves the invariant unestablished, as the model prescribes.
        """
        if not self._swept_all:
            raise SimulationError(
                "threshold invariant holds only after the first post-warm "
                "round"
            )
        for node_id in self.state.alive_ids():
            if node_id == self._grace_id:
                continue
            degree = self.state.degree(node_id)
            if degree < self.threshold:
                raise SimulationError(
                    f"node {node_id} has degree {degree} < threshold "
                    f"{self.threshold} after a sweep"
                )


def TSDG(
    n: int,
    d: int,
    threshold: int | None = None,
    seed: SeedLike = None,
    warm: bool = True,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> ThresholdStreamingNetwork:
    """Threshold-driven streaming graph without edge regeneration.

    The default threshold ``max(1, d // 2)`` keeps the no-regeneration
    dynamic supercritical at moderate d (nodes tolerate losing about
    half their requests before departing).
    """
    from repro.core.edge_policy import NoRegenerationPolicy

    return ThresholdStreamingNetwork(
        n,
        NoRegenerationPolicy(d),
        threshold=default_threshold(d) if threshold is None else threshold,
        seed=seed,
        warm=warm,
        backend=backend,
        fast_warm=fast_warm,
    )
