"""Streaming dynamic graphs: SDG (Def. 3.4) and SDGR (Def. 3.13).

One round of the streaming churn, for round number ``r > n``:

1. the node born at round ``r − n`` **dies** (all incident edges vanish);
2. under regeneration, every orphaned request immediately re-samples a
   uniform destination among the ``n − 1`` survivors;
3. a new node is **born** and issues ``d`` uniform requests among the
   ``n − 1`` nodes present (it cannot pick the node that died this round).

The paper leaves the intra-round order unspecified; this death →
regeneration → birth order matches the 1/(n−1) destination probabilities
used by Lemma 3.14 (see DESIGN.md §2.2).  During the first ``n`` rounds
(warm-up) only births occur, exactly as in Definition 3.2 (``N_0 = ∅``).
"""

from __future__ import annotations

from repro.churn.streaming import StreamingSchedule
from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import GraphBackend
from repro.core.edge_policy import (
    EdgePolicy,
    NoRegenerationPolicy,
    RegenerationPolicy,
)
from repro.errors import ConfigurationError, SimulationError
from repro.models.base import DynamicNetwork, RoundReport
from repro.sim.events import EventRecord, NodesBorn, NodesDied
from repro.util.rng import SeedLike


class StreamingNetwork(DynamicNetwork):
    """Driver for the streaming models (shared by SDG and SDGR).

    Args:
        n: network size (= deterministic node lifetime in rounds).
        policy: edge policy (no-regen for SDG, regen for SDGR).
        seed: RNG seed.
        warm: when true (default), immediately apply the first ``n``
            birth rounds so the network starts full, at round ``n``.  The
            births are applied as one batch with no per-round reports,
            bit-identical to ``n`` per-event rounds (same targets, alive
            order, mutation epoch and RNG state) on every backend; a
            policy overriding the birth hook runs it per birth.
        backend: topology backend (see :class:`~repro.models.base.DynamicNetwork`).
        fast_warm: draw the ``n`` warm-up births in one call instead
            (:meth:`~repro.core.edge_policy.EdgePolicy.handle_births`).
            Same distribution as the exact warm-up, but a *different
            seeded trajectory*: it differs only in its RNG stream, which
            is the same on every backend.  Leave False when trajectories
            must match a per-event run.
    """

    def __init__(
        self,
        n: int,
        policy: EdgePolicy,
        seed: SeedLike = None,
        warm: bool = True,
        backend: str | GraphBackend | None = None,
        fast_warm: bool = False,
    ) -> None:
        if n < 2:
            raise ConfigurationError(f"streaming model needs n >= 2, got {n}")
        super().__init__(policy, seed, backend=backend)
        self.n = n
        self.schedule = StreamingSchedule(n)
        self.round_number = 0
        if warm:
            self._pure_birth_rounds(0, n, exact=not fast_warm)
            self.round_number = n

    def advance_round(self) -> RoundReport:
        """Apply one streaming round: death (if any), regeneration, birth."""
        return self._rounds(1)[0]

    def run_rounds(self, count: int) -> list[RoundReport]:
        """Apply *count* streaming rounds, returning their reports.

        With a uniform policy (``round_batch_regenerate`` is ``True`` or
        ``False``) on the array backend the window runs through
        :meth:`~repro.core.array_backend.ArraySlotBackend.apply_exact_rounds`:
        the policy hooks' per-event law, bit-identical to them for any
        partition into windows.  Other policies and backends step the
        hooks one round at a time, and a subclass with its own
        :meth:`advance_round` (the baselines) steps that.
        """
        if self._own_round_law():
            return super().run_rounds(count)
        return self._rounds(count)

    def advance_rounds(self, count: int) -> None:
        """Apply *count* streaming rounds and keep no reports.

        The rounds of :meth:`run_rounds`, bit-identical in everything
        they leave behind: backend state, generator, epoch.  With a
        uniform policy on the array backend they run as a fused window
        (:meth:`_fused_advance`); the baselines, other policies and
        other backends run :meth:`run_rounds`.
        """
        regenerate = self._fused_law()
        if regenerate is None:
            super().advance_rounds(count)
        else:
            self._fused_advance(count, regenerate)

    def _fused_law(self) -> bool | None:
        """The fused kernel's *regenerate* flag for this network, or
        ``None`` when its rounds must step :meth:`run_rounds`' own way: a
        baseline's round law, a policy outside the uniform law, or a
        backend without the kernel."""
        if self._own_round_law() or not isinstance(self.state, ArraySlotBackend):
            return None
        return self.policy.round_batch_regenerate

    def _own_round_law(self) -> bool:
        """Whether a subclass (a baseline) steps its own ``advance_round``."""
        return type(self).advance_round is not StreamingNetwork.advance_round

    def _rounds(self, count: int) -> list[RoundReport]:
        """*count* rounds of this class's law: the exact window kernel,
        or the policy hooks round by round."""
        regenerate = self.policy.round_batch_regenerate
        if regenerate is None or not isinstance(self.state, ArraySlotBackend):
            return [self._hook_round() for _ in range(count)]
        if count <= 0:
            return []
        first = self.round_number + 1
        start = self.now
        self.clock.advance_to(float(first))
        logs = self.state.apply_exact_rounds(
            first, count, self.n, self.d, regenerate, self.rng
        )
        self.round_number = first + count - 1
        self.clock.advance_to(float(self.round_number))
        reports = []
        logged = RoundReport.logged
        for end, log in enumerate(logs, first):
            reports.append(logged(start, float(end), log))
            start = float(end)
        return reports

    def _hook_round(self) -> RoundReport:
        """One round through the policy's birth and death hooks."""
        self.round_number += 1
        start = self.now
        self.clock.advance_to(float(self.round_number))
        report = RoundReport(start_time=start, end_time=self.now)

        death_id = self.schedule.death_id(self.round_number)
        if death_id is not None:
            report.events.append(
                self.policy.handle_death(self.state, death_id, self.now, self.rng)
            )

        birth_id = self.state.allocate_id()
        expected = self.schedule.birth_id(self.round_number)
        if birth_id != expected:
            raise SimulationError(
                f"id drift: allocated {birth_id}, schedule expects {expected}"
            )
        report.events.append(
            self.policy.handle_birth(self.state, birth_id, self.now, self.rng)
        )
        return report

    # ------------------------------------------------------------------
    # fused windows (the ``fast_rounds`` kernel)
    # ------------------------------------------------------------------

    supports_batched_advance = True

    #: Per-window cap on the fused kernel's chunk size.  The kernel's
    #: local slot matrix has n + chunk rows; its transient in-lists cover
    #: only the chunk's dying nodes, O(chunk · d) entries on average.
    #: Windows larger than a chunk loop over chunks.
    _FUSED_CHUNK_CAP = 262144

    def _window_rounds(self, target: float) -> int:
        span = target - self.now
        rounds = int(round(span))
        if abs(span - rounds) > 1e-9:
            raise SimulationError(
                "streaming windows must cover whole rounds; got a span "
                f"of {span} rounds"
            )
        return rounds

    def _advance_window_batched(self, target: float, report: RoundReport) -> None:
        """One fused window (:meth:`_fused_advance`), reported coarsely.

        The window leaves the state, the alive order and the generator
        exactly as per-event rounds do, for any partition into windows;
        only the report differs.  Churn is reported as coalesced
        records, not per round: one ``NodesBorn`` for a warm-up prefix,
        then one ``NodesDied`` plus one ``NodesBorn`` for the
        steady-state rounds.

        Policies outside the plain uniform law (bounded-degree ones, or
        any subclass overriding a hook), subclasses with their own
        :meth:`advance_round` (the baselines) and other backends step
        per-event rounds instead.
        """
        rounds = self._window_rounds(target)
        if rounds <= 0:
            self.clock.advance_to(target)
            return
        regenerate = self._fused_law()
        if regenerate is None:
            self._per_event_rounds(rounds, report)
            return
        start = self.round_number
        warm = self._fused_advance(rounds, regenerate)
        events = report.events
        if warm:
            events.append(
                EventRecord(
                    time=float(start + warm),
                    kind=NodesBorn(node_ids=tuple(range(start, start + warm))),
                )
            )
        if rounds > warm:
            # Round r kills node r − n − 1 and gives birth to node r − 1.
            born, died = start + warm, start + warm - self.n
            steady = rounds - warm
            events.append(
                EventRecord(
                    time=self.now,
                    kind=NodesDied(node_ids=tuple(range(died, died + steady))),
                )
            )
            events.append(
                EventRecord(
                    time=self.now,
                    kind=NodesBorn(node_ids=tuple(range(born, born + steady))),
                )
            )

    def _fused_advance(self, count: int, regenerate: bool) -> int:
        """*count* rounds of the uniform law on the array backend: the
        warm-up prefix of a cold network (rounds ``≤ n``, births only) as
        one exact birth batch, then :meth:`_fused_rounds`.  Returns the
        prefix's length."""
        warm = min(count, max(self.n - self.round_number, 0))
        if warm:
            self._pure_birth_rounds(self.round_number, warm, exact=True)
            self.round_number += warm
        self._fused_rounds(count - warm, regenerate)
        return warm

    def _fused_rounds(self, count: int, regenerate: bool) -> None:
        """*count* steady-state rounds through ``apply_fused_rounds``, in
        chunks of at most ``max(4096, min(n, _FUSED_CHUNK_CAP))``."""
        chunk_cap = max(4096, min(self.n, self._FUSED_CHUNK_CAP))
        while count > 0:
            chunk = min(count, chunk_cap)
            self.state.apply_fused_rounds(
                self.round_number + 1, chunk, self.n, self.d, regenerate, self.rng
            )
            self.round_number += chunk
            self.clock.advance_to(float(self.round_number))
            count -= chunk

    def _per_event_rounds(self, count: int, report: RoundReport) -> None:
        """Window fallback: ordinary per-event rounds, per-round records."""
        for round_report in self.run_rounds(count):
            report.extend(round_report)

    def newest_id(self) -> int:
        """Id of the node born in the most recent round."""
        if self.round_number == 0:
            raise SimulationError("no rounds have run yet")
        return self.schedule.birth_id(self.round_number)

    def oldest_id(self) -> int:
        """Id of the oldest alive node."""
        return max(0, self.round_number - self.n)


def SDG(
    n: int,
    d: int,
    seed: SeedLike = None,
    warm: bool = True,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> StreamingNetwork:
    """Streaming Dynamic Graph without edge regeneration (Definition 3.4)."""
    return StreamingNetwork(
        n, NoRegenerationPolicy(d), seed=seed, warm=warm, backend=backend,
        fast_warm=fast_warm,
    )


def SDGR(
    n: int,
    d: int,
    seed: SeedLike = None,
    warm: bool = True,
    backend: str | GraphBackend | None = None,
    fast_warm: bool = False,
) -> StreamingNetwork:
    """Streaming Dynamic Graph with edge regeneration (Definition 3.13)."""
    return StreamingNetwork(
        n, RegenerationPolicy(d), seed=seed, warm=warm, backend=backend,
        fast_warm=fast_warm,
    )
