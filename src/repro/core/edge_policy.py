"""Edge-creation and edge-repair policies (the paper's topology dynamics).

Two policies implement the paper's two topology dynamics:

* :class:`NoRegenerationPolicy` — Definitions 3.4 (SDG) and 4.9 (PDG):
  edges are created only at birth; a request whose destination dies is
  lost forever (the slot stays ``None``).
* :class:`RegenerationPolicy` — Definitions 3.13 (SDGR) and 4.14 (PDGR):
  whenever a request's destination dies, the owner immediately re-samples
  a fresh uniformly random destination, keeping its out-degree at ``d``
  whenever the network has at least one other node.

Two *bounded-degree* policies extend beyond the paper, probing its §5
open question about fully-random dynamics with bounded degrees:

* :class:`CappedRegenerationPolicy` (see DESIGN.md §5) — regeneration
  with a hard in-degree cap (Bitcoin Core's 125-peer limit): a request is
  retried a few times and then *given up*, so out-degrees may fall below
  ``d`` under a tight cap.
* :class:`RAESPolicy` — the RAES-style dynamic of Cruciani 2025
  ("Maintaining a Bounded Degree Expander in Dynamic Peer-to-Peer
  Networks", arXiv:2506.17757): out-degree exactly ``d``, hard in-degree
  cap ``c·d`` with ``c ≥ 1``; a saturated target rejects the request and
  the requester keeps re-sampling, so total capacity always covers demand
  and every slot is placed almost surely.

Both share :class:`BoundedInDegreePolicy`: a readable sequential
rejection loop on the per-event path (bit-identical seeded trajectories
on every backend, the test oracle included), and a vectorized batch path
that places whole birth batches and death-repair waves through the array
backend's bulk accept/reject sampler
(:meth:`~repro.core.array_backend.ArraySlotBackend.place_slots_capped`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Callable

import numpy as np

from repro.core.backend import GraphBackend
from repro.errors import ConfigurationError
from repro.sim.events import (
    EdgeCreated,
    EdgeDestroyed,
    EventRecord,
    NodeBorn,
    NodeDied,
    NodesDied,
)
from repro.util.sampling import birth_batch_draws, birth_prefix_draws


class EdgePolicy(ABC):
    """Decides how edge requests are created at birth and repaired at death."""

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ConfigurationError(f"out-degree d must be >= 1, got {d}")
        self.d = d

    def handle_birth(
        self,
        state: GraphBackend,
        node_id: int,
        time: float,
        rng: np.random.Generator,
    ) -> EventRecord:
        """Register the newborn and issue its ``d`` initial requests."""
        state.add_node(node_id, birth_time=time, num_slots=self.d)
        record = EventRecord(time=time, kind=NodeBorn(node_id=node_id))
        targets = state.sample_targets(rng, self.d, exclude=node_id)
        state.assign_slots([(node_id, j) for j in range(len(targets))], targets)
        record.edges_created.extend(map(EdgeCreated, repeat(node_id), targets))
        return record

    def handle_death(
        self,
        state: GraphBackend,
        node_id: int,
        time: float,
        rng: np.random.Generator,
    ) -> EventRecord:
        """Remove the dying node and repair orphaned requests per policy."""
        record = EventRecord(time=time, kind=NodeDied(node_id=node_id))
        # Destroyed edges: everything incident to the dying node, in
        # ascending neighbour id.
        record.edges_destroyed.extend(
            map(EdgeDestroyed, repeat(node_id), sorted(state.neighbors(node_id)))
        )
        orphaned = state.remove_node(node_id, death_time=time)
        self.repair_orphans(state, orphaned, time, rng, record)
        return record

    @abstractmethod
    def repair_orphans(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        """Handle slots whose destination just died."""

    def repair_orphans_batched(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        """Repair one batched-death wave of orphans (:meth:`handle_deaths`).

        Defaults to the per-event :meth:`repair_orphans`; policies with a
        vectorized repair (the bounded-degree ones) override this so only
        the *batch* path changes — per-event trajectories stay
        bit-identical across backends.
        """
        self.repair_orphans(state, orphaned, time, rng, record)

    # ------------------------------------------------------------------
    # batched churn
    # ------------------------------------------------------------------

    @property
    def supports_batch_birth(self) -> bool:
        """Whether births may be applied through the backend's batch path.

        True exactly when the policy uses the base uniform birth rule —
        a subclass that overrides :meth:`handle_birth` (e.g. the capped
        policy's filtered sampling) must go through the per-node path.
        """
        return type(self).handle_birth is EdgePolicy.handle_birth

    @property
    def round_batch_regenerate(self) -> bool | None:
        """Gate for the streaming window kernels.

        ``True``/``False`` is the *regenerate* argument an exact
        (``apply_exact_rounds``) or fused (``apply_fused_rounds``)
        window may run with; both take the per-event draws, so either
        reproduces this policy's hooks.  ``None`` means this policy's
        per-round law is not the plain uniform death → regeneration →
        birth law the kernels implement (bounded-degree policies, or any
        subclass overriding the birth/death hooks), so the driver steps
        the hooks.
        """
        return None

    def handle_births(
        self,
        state: GraphBackend,
        node_ids: list[int],
        times: list[float] | float,
        rng: np.random.Generator,
    ) -> None:
        """Apply a pure-birth batch without per-event records, fast.

        With the base uniform birth rule every request is drawn in one
        call (:func:`~repro.util.sampling.birth_batch_draws`): the law of
        :meth:`handle_birth_prefix` on a different RNG stream, the same
        stream on every backend.  A policy that overrides
        :meth:`handle_birth` runs :meth:`handle_birth_prefix`.
        """
        if not self.supports_batch_birth:
            self.handle_birth_prefix(state, node_ids, times, rng)
            return
        self._write_births(state, node_ids, times, rng, birth_batch_draws)

    def handle_birth_prefix(
        self,
        state: GraphBackend,
        node_ids: list[int],
        times: list[float] | float,
        rng: np.random.Generator,
    ) -> None:
        """Apply pure births exactly as a :meth:`handle_birth` loop would.

        Same targets, alive order, ``mutation_epoch`` and RNG state as
        the loop, without event records: the per-event warm-up.  With
        the base uniform birth rule every request is drawn in one exact
        batch (:func:`~repro.util.sampling.birth_prefix_draws`) and
        written with one ``apply_birth_slots``; a policy that overrides
        :meth:`handle_birth` keeps its loop.
        """
        if not self.supports_batch_birth:
            times_list = state.birth_times_list(node_ids, times)
            for node_id, time in zip(node_ids, times_list):
                self.handle_birth(state, node_id, time, rng)
            return
        self._write_births(state, node_ids, times, rng, birth_prefix_draws)

    def _write_births(
        self,
        state: GraphBackend,
        node_ids: list[int],
        times: list[float] | float,
        rng: np.random.Generator,
        draw: Callable[[np.random.Generator, int, int, int], np.ndarray],
    ) -> None:
        """Draw the batch's pool indices with *draw* and write the
        targets through one ``apply_birth_slots``."""
        # Newborn k's pool: the alive order, then the newborns up to k.
        first_pool = state.num_alive() + 1
        pool = np.asarray(state.alive.as_list() + list(node_ids), dtype=np.int64)
        draws = draw(rng, first_pool, len(node_ids), self.d)
        targets = np.where(draws >= 0, pool[draws], -1)
        state.apply_birth_slots(node_ids, times, targets)

    def handle_deaths(
        self,
        state: GraphBackend,
        node_ids: list[int],
        time: float,
        rng: np.random.Generator,
    ) -> EventRecord:
        """Apply a batch of deaths, then repair the surviving orphans once.

        The backend removes every listed node before any repair happens,
        so regenerated requests can never target a node dying in the same
        batch — the semantics of "these nodes left simultaneously".
        Returns one aggregate :class:`NodesDied` record: ``edges_destroyed``
        holds every edge incident to a victim (victim–victim edges once),
        victim by victim in ascending neighbour id, ``edges_created``
        every regenerated replacement edge.
        """
        record = EventRecord(time=time, kind=NodesDied(node_ids=tuple(node_ids)))
        seen: set[tuple[int, int]] = set()
        for node_id in node_ids:
            for neighbor in sorted(state.neighbors(node_id)):
                key = (min(node_id, neighbor), max(node_id, neighbor))
                if key in seen:
                    continue
                seen.add(key)
                record.edges_destroyed.append(
                    EdgeDestroyed(source=node_id, target=neighbor)
                )
        orphaned = state.apply_deaths(node_ids, death_time=time)
        self.repair_orphans_batched(state, orphaned, time, rng, record)
        return record


class NoRegenerationPolicy(EdgePolicy):
    """Lost requests stay lost (SDG / PDG)."""

    @property
    def round_batch_regenerate(self) -> bool | None:
        # Subclasses that change the birth/death/repair hooks fall off
        # the fused kernel's law; detect overrides rather than trusting
        # inheritance.
        if (
            type(self).handle_birth is EdgePolicy.handle_birth
            and type(self).handle_death is EdgePolicy.handle_death
            and type(self).repair_orphans is NoRegenerationPolicy.repair_orphans
        ):
            return False
        return None

    def repair_orphans(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        # Slots were already cleared by remove_node; nothing to do.
        del state, orphaned, time, rng, record


class RegenerationPolicy(EdgePolicy):
    """Each orphaned request immediately re-samples a fresh uniform target
    (SDGR / PDGR)."""

    @property
    def round_batch_regenerate(self) -> bool | None:
        if (
            type(self).handle_birth is EdgePolicy.handle_birth
            and type(self).handle_death is EdgePolicy.handle_death
            and type(self).repair_orphans is RegenerationPolicy.repair_orphans
        ):
            return True
        return None

    def repair_orphans(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        if not orphaned or state.num_alive() < 2:
            return  # nothing to repair, or each source is the only node left
        sources = [source for source, _ in orphaned]
        targets = state.alive.sample_each_excluding(rng, sources)
        state.assign_slots(orphaned, targets)
        record.edges_created.extend(map(EdgeCreated, sources, targets))


class BoundedInDegreePolicy(EdgePolicy):
    """Shared mechanics of the bounded-in-degree policies (capped + RAES).

    A request (at birth or regeneration) re-samples its target until it
    finds one whose current in-slot count is below ``max_in_degree`` — a
    saturated target *rejects* the request.  After *max_attempts*
    rejections the slot is left empty for now (it becomes repairable at
    the next incident death).

    Two placement paths:

    * **per-event** (:meth:`handle_birth` / :meth:`repair_orphans`) — the
      readable sequential rejection loop, consuming the RNG through
      ``sample_targets`` exactly like the unbounded policies, so seeded
      trajectories are bit-identical across backends;
    * **batched** (:meth:`handle_births` / :meth:`repair_orphans_batched`)
      — every pending slot of the batch is placed through one vectorized
      accept/reject pass
      (:meth:`~repro.core.array_backend.ArraySlotBackend.place_slots_capped`);
      same placement law, different RNG stream consumption, exactly like
      the base :meth:`EdgePolicy.handle_births`.  Set ``bulk=False`` to
      force the sequential loop everywhere (benchmark/diagnostic knob).
    """

    def __init__(
        self, d: int, max_in_degree: int, max_attempts: int, bulk: bool = True
    ) -> None:
        super().__init__(d)
        if max_in_degree < 1:
            raise ConfigurationError("max_in_degree must be >= 1")
        if max_attempts < 1:
            # A non-positive budget would silently skip every placement
            # loop: births and repairs would produce zero edges, no error.
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_in_degree = int(max_in_degree)
        self.max_attempts = int(max_attempts)
        self.bulk = bool(bulk)

    #: Candidate pool of a batched birth: ``False`` mirrors the sequential
    #: law (newborn k only targets the m0+k nodes present when it joins);
    #: ``True`` is the RAES parallel round — every node present in the
    #: round is a candidate, so prefix saturation cannot starve an early
    #: newborn out of its (tiny) pool.
    bulk_birth_full_pool = False

    # ------------------------------------------------------------------
    # per-event path (sequential, backend-parity preserving)
    # ------------------------------------------------------------------

    def _pick_capped_target(
        self, state: GraphBackend, source: int, rng: np.random.Generator
    ) -> int | None:
        for _ in range(self.max_attempts):
            targets = state.sample_targets(rng, 1, exclude=source)
            if not targets:
                return None
            target = targets[0]
            if state.in_slot_count(target) < self.max_in_degree:
                return target
        return None

    def handle_birth(
        self,
        state: GraphBackend,
        node_id: int,
        time: float,
        rng: np.random.Generator,
    ) -> EventRecord:
        state.add_node(node_id, birth_time=time, num_slots=self.d)
        record = EventRecord(time=time, kind=NodeBorn(node_id=node_id))
        for slot_index in range(self.d):
            target = self._pick_capped_target(state, node_id, rng)
            if target is None:
                continue
            state.assign_slot(node_id, slot_index, target)
            record.edges_created.append(EdgeCreated(source=node_id, target=target))
        return record

    def repair_orphans(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        for source, slot_index in orphaned:
            target = self._pick_capped_target(state, source, rng)
            if target is None:
                continue
            state.assign_slot(source, slot_index, target)
            record.edges_created.append(EdgeCreated(source=source, target=target))

    # ------------------------------------------------------------------
    # batched path (vectorized accept/reject)
    # ------------------------------------------------------------------

    def handle_births(
        self,
        state: GraphBackend,
        node_ids: list[int],
        times: list[float] | float,
        rng: np.random.Generator,
    ) -> None:
        """Apply a pure-birth batch, placing all slots in one bulk pass.

        By default mirrors the pool semantics of the base
        :meth:`EdgePolicy.handle_births` — newborn ``k`` only targets the
        ``m0 + k`` nodes present when it joins (earlier newborns of the
        same batch included, itself and later newborns excluded).
        Policies setting :attr:`bulk_birth_full_pool` instead let every
        request draw from the whole post-batch population.
        """
        if not self.bulk:
            self.handle_birth_prefix(state, node_ids, times, rng)
            return
        m0 = state.num_alive()
        rows = state.add_nodes(node_ids, times, self.d)
        count = len(node_ids)
        sources = np.repeat(np.asarray(node_ids, dtype=np.int64), self.d)
        slots = np.tile(np.arange(self.d, dtype=np.int64), count)
        if self.bulk_birth_full_pool:
            highs = None
        else:
            highs = np.repeat(m0 + np.arange(count, dtype=np.int64), self.d)
        state.place_slots_capped(
            sources, slots, self.max_in_degree, self.max_attempts, rng,
            highs=highs,
            source_rows=np.repeat(rows, self.d),
        )

    def repair_orphans_batched(
        self,
        state: GraphBackend,
        orphaned: list[tuple[int, int]],
        time: float,
        rng: np.random.Generator,
        record: EventRecord,
    ) -> None:
        """Repair a whole death batch's orphans in one accept/reject pass."""
        if not self.bulk:
            self.repair_orphans(state, orphaned, time, rng, record)
            return
        if not orphaned:
            return
        sources = np.asarray([s for s, _ in orphaned], dtype=np.int64)
        slots = np.asarray([j for _, j in orphaned], dtype=np.int64)
        targets = state.place_slots_capped(
            sources, slots, self.max_in_degree, self.max_attempts, rng
        )
        for source, target in zip(sources.tolist(), targets.tolist()):
            if target >= 0:
                record.edges_created.append(
                    EdgeCreated(source=source, target=target)
                )


class CappedRegenerationPolicy(BoundedInDegreePolicy):
    """Regeneration with a maximum in-degree (extension beyond the paper).

    A request (at birth or regeneration) is retried up to *max_attempts*
    times until it finds a target whose current in-slot count is below
    ``max_in_degree``; if every attempt fails the slot is left empty for
    now (it will be repaired at the next incident death).  With
    ``max_in_degree=inf`` this reduces to :class:`RegenerationPolicy`.
    """

    def __init__(
        self,
        d: int,
        max_in_degree: int,
        max_attempts: int = 16,
        bulk: bool = True,
    ) -> None:
        super().__init__(d, max_in_degree, max_attempts, bulk=bulk)


class RAESPolicy(BoundedInDegreePolicy):
    """RAES-style bounded-degree expander dynamic (Cruciani 2025).

    "Request a link, then Accept if Enough Space" (arXiv:2506.17757,
    building on Becchetti et al.): every node keeps out-degree exactly
    ``d``; every node accepts at most ``c·d`` in-links.  A request whose
    target is saturated is rejected and immediately re-sampled.  With
    ``c > 1`` (the regime the RAES analysis assumes) capacity strictly
    exceeds demand, an unsaturated target exists almost surely, and the
    re-sampling loop terminates quickly — *max_attempts* (default 64,
    far above the capped policy's 16) is only a livelock guard.  The
    boundary ``c = 1`` is accepted but tight: with zero slack the last
    requests may fail to find the few free slots by uniform sampling.

    The constructor rejects a cap below ``d`` at construction: with
    ``c·d < d`` the network could never hold every node's ``d`` requests
    even in principle, so the "out-degree exactly d" contract would be
    unsatisfiable.
    """

    #: A batched RAES birth round samples the whole present population —
    #: the parallel RAES dynamic — so a tiny sequential-prefix pool can
    #: never strand a newborn's requests behind saturated targets.
    bulk_birth_full_pool = True

    def __init__(
        self,
        d: int,
        c: float = 2.0,
        max_attempts: int = 64,
        bulk: bool = True,
    ) -> None:
        if d < 1:
            raise ConfigurationError(f"out-degree d must be >= 1, got {d}")
        cap = int(math.floor(c * d))
        if cap < d:
            raise ConfigurationError(
                f"RAES needs an in-degree cap of at least d: c={c} gives "
                f"cap floor(c*d)={cap} < d={d}, which can never place all slots"
            )
        super().__init__(d, cap, max_attempts, bulk=bulk)
        self.c = float(c)
