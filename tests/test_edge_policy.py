"""Tests for the edge policies (Defs 3.4/3.13 + the bounded-degree extensions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.core.edge_policy import (
    CappedRegenerationPolicy,
    NoRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.errors import ConfigurationError
from repro.util.rng import make_rng
from tests.oracles.dict_backend import DictBackend


def seeded_state(policy, num_nodes: int, seed: int = 0) -> DictBackend:
    state = DictBackend()
    rng = make_rng(seed)
    for _ in range(num_nodes):
        policy.handle_birth(state, state.allocate_id(), 0.0, rng)
    return state


class TestBirth:
    def test_first_node_has_empty_slots(self):
        policy = NoRegenerationPolicy(d=4)
        state = seeded_state(policy, 1)
        assert state.record(0).out_slots == [None] * 4

    def test_birth_assigns_d_slots(self):
        policy = NoRegenerationPolicy(d=4)
        state = seeded_state(policy, 5)
        for u in range(1, 5):
            assert state.record(u).out_degree() == 4

    def test_birth_event_record(self):
        policy = NoRegenerationPolicy(d=3)
        state = DictBackend()
        rng = make_rng(1)
        policy.handle_birth(state, state.allocate_id(), 0.0, rng)
        record = policy.handle_birth(state, state.allocate_id(), 1.0, rng)
        assert record.is_birth
        assert record.node_id == 1
        assert len(record.edges_created) == 3
        assert all(e.source == 1 and e.target == 0 for e in record.edges_created)

    def test_invalid_d(self):
        with pytest.raises(ConfigurationError):
            NoRegenerationPolicy(d=0)


class TestNoRegenerationDeath:
    def test_orphans_stay_empty(self):
        policy = NoRegenerationPolicy(d=2)
        state = seeded_state(policy, 2, seed=3)
        # node 1's two requests both target node 0.
        assert state.record(1).out_slots == [0, 0]
        record = policy.handle_death(state, 0, 5.0, make_rng(0))
        assert record.is_death
        assert state.record(1).out_slots == [None, None]
        assert record.edges_created == []
        assert len(record.edges_destroyed) == 1  # one distinct undirected edge

    def test_death_destroys_all_incident_edges(self):
        policy = NoRegenerationPolicy(d=1)
        state = seeded_state(policy, 6, seed=5)
        victim = 0  # every later node may point at 0; 0 has no out-edges
        degree_before = state.degree(victim)
        record = policy.handle_death(state, victim, 9.0, make_rng(0))
        assert len(record.edges_destroyed) == degree_before
        state.check_invariants()


class TestRegenerationDeath:
    def test_orphans_resampled(self):
        policy = RegenerationPolicy(d=2)
        state = seeded_state(policy, 5, seed=7)
        rng = make_rng(11)
        policy.handle_death(state, 0, 5.0, rng)
        state.check_invariants()
        # Every survivor keeps full out-degree: candidates always exist.
        for u in state.alive_ids():
            assert state.record(u).out_degree() == 2

    def test_regenerated_edges_reported(self):
        policy = RegenerationPolicy(d=3)
        state = seeded_state(policy, 2, seed=1)
        # node 1 points at node 0 three times; killing 0 regenerates,
        # but the only candidate is... nobody (only node 1 remains).
        record = policy.handle_death(state, 0, 2.0, make_rng(2))
        assert record.edges_created == []
        assert state.record(1).out_slots == [None, None, None]

    def test_regeneration_with_candidates(self):
        policy = RegenerationPolicy(d=2)
        state = seeded_state(policy, 4, seed=9)
        orphan_count = sum(
            sum(1 for t in state.record(u).out_slots if t == 0)
            for u in range(1, 4)
        )
        record = policy.handle_death(state, 0, 3.0, make_rng(13))
        # Every orphaned slot was re-assigned (3 nodes remain, so a
        # candidate always exists), and each re-assignment was reported.
        assert len(record.edges_created) == orphan_count
        for u in state.alive_ids():
            if u != 0:
                assert state.record(u).out_degree() == 2
        state.check_invariants()


class TestCappedRegeneration:
    def test_cap_respected_at_birth(self):
        policy = CappedRegenerationPolicy(d=3, max_in_degree=2)
        state = seeded_state(policy, 30, seed=21)
        for u in state.alive_ids():
            assert len(state.in_refs[u]) <= 2

    def test_cap_respected_after_deaths(self):
        policy = CappedRegenerationPolicy(d=3, max_in_degree=2)
        state = seeded_state(policy, 30, seed=22)
        rng = make_rng(23)
        for victim in [0, 1, 2, 3, 4]:
            policy.handle_death(state, victim, 1.0, rng)
            state.check_invariants()
        for u in state.alive_ids():
            assert len(state.in_refs[u]) <= 2

    def test_invalid_cap(self):
        with pytest.raises(ConfigurationError):
            CappedRegenerationPolicy(d=2, max_in_degree=0)

    @pytest.mark.parametrize("max_attempts", [0, -1])
    def test_invalid_max_attempts(self, max_attempts):
        # Regression: max_attempts < 1 used to be accepted silently, and
        # every placement loop became a no-op — births and repairs
        # produced zero edges with no error anywhere.
        with pytest.raises(ConfigurationError, match="max_attempts"):
            CappedRegenerationPolicy(d=2, max_in_degree=4, max_attempts=max_attempts)
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RAESPolicy(d=2, c=2, max_attempts=max_attempts)

    def test_slot_left_empty_when_all_capped(self):
        # d=5 into a 2-node network: the single other node caps at 1.
        policy = CappedRegenerationPolicy(d=5, max_in_degree=1, max_attempts=8)
        state = seeded_state(policy, 2, seed=24)
        assert state.record(1).out_degree() <= 1


class TestRAES:
    def test_cap_is_c_times_d(self):
        policy = RAESPolicy(d=4, c=2)
        assert policy.max_in_degree == 8
        assert policy.d == 4

    def test_fractional_c_floors(self):
        assert RAESPolicy(d=4, c=1.5).max_in_degree == 6

    def test_cap_below_d_rejected(self):
        # c*d < d can never host all n*d requests: refuse at construction.
        with pytest.raises(ConfigurationError, match="cap"):
            RAESPolicy(d=4, c=0.5)

    def test_invalid_d(self):
        with pytest.raises(ConfigurationError):
            RAESPolicy(d=0)

    def test_cap_respected_under_churn(self):
        policy = RAESPolicy(d=3, c=1)
        state = seeded_state(policy, 30, seed=31)
        rng = make_rng(32)
        for victim in [4, 9, 0, 17]:
            policy.handle_death(state, victim, 1.0, rng)
            state.check_invariants()
        for u in state.alive_ids():
            assert state.in_slot_count(u) <= 3

    def test_full_out_degree_with_slack(self):
        # c=2 leaves spare capacity everywhere, so every request places.
        policy = RAESPolicy(d=3, c=2)
        state = seeded_state(policy, 40, seed=33)
        rng = make_rng(34)
        for victim in [5, 12, 3]:
            policy.handle_death(state, victim, 1.0, rng)
        for u in state.alive_ids():
            if u == 0:
                continue  # born into an empty network: no candidates ever
            assert state.record(u).out_degree() == 3


class TestBulkPlacement:
    """The vectorized accept/reject path on the array backend."""

    def _bulk_births(self, policy, count, seed=0):
        state = ArraySlotBackend(initial_capacity=4, slot_width=1)
        rng = make_rng(seed)
        policy.handle_births(state, state.allocate_ids(count), 0.0, rng)
        return state

    def test_bulk_births_respect_cap(self):
        policy = CappedRegenerationPolicy(d=4, max_in_degree=5)
        state = self._bulk_births(policy, 200, seed=41)
        state.check_invariants()
        for u in state.alive_ids():
            assert state.in_slot_count(u) <= 5

    def test_raes_bulk_births_fill_every_slot(self):
        policy = RAESPolicy(d=4, c=2)
        state = self._bulk_births(policy, 300, seed=42)
        state.check_invariants()
        for u in state.alive_ids():
            assert state.in_slot_count(u) <= 8
            assert all(t is not None for t in state.out_slots_of(u))

    def test_bulk_matches_sequential_law_support(self):
        # bulk=False forces the sequential loop on the same backend; both
        # must satisfy the cap invariant and leave full out-degrees when
        # capacity is slack (they differ only in RNG stream consumption;
        # node 0 is sequential-special: it is born into an empty network).
        for bulk in (True, False):
            policy = RAESPolicy(d=3, c=2, bulk=bulk)
            state = self._bulk_births(policy, 120, seed=43)
            state.check_invariants()
            for u in state.alive_ids():
                if u == 0 and not bulk:
                    continue
                assert all(t is not None for t in state.out_slots_of(u))

    def test_bulk_death_repair_respects_cap(self):
        policy = RAESPolicy(d=3, c=1)
        state = self._bulk_births(policy, 80, seed=44)
        rng = make_rng(45)
        policy.handle_deaths(state, list(range(0, 40, 3)), 1.0, rng)
        state.check_invariants()
        for u in state.alive_ids():
            assert state.in_slot_count(u) <= 3

    def test_bulk_repair_reports_created_edges(self):
        policy = RAESPolicy(d=3, c=2)
        state = self._bulk_births(policy, 50, seed=46)
        record = policy.handle_deaths(state, [1, 2, 3], 1.0, make_rng(47))
        # Spare capacity everywhere: every orphaned slot was re-placed,
        # and each replacement is reported on the aggregate record.
        assert record.edges_created
        for edge in record.edges_created:
            assert state.is_alive(edge.source)
            assert state.is_alive(edge.target)
        for u in state.alive_ids():
            assert all(t is not None for t in state.out_slots_of(u))

    def test_place_slots_rejects_occupied_slot(self):
        from repro.errors import SimulationError

        policy = RAESPolicy(d=2, c=2)
        state = self._bulk_births(policy, 10, seed=48)
        with pytest.raises(SimulationError, match="empty"):
            state.place_slots_capped(
                np.array([0]), np.array([0]), 4, 8, make_rng(0)
            )
