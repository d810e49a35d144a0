"""Tests for DictBackend, including a hypothesis invariant property."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_policy import NoRegenerationPolicy, RegenerationPolicy
from repro.errors import SimulationError
from repro.util.rng import make_rng
from tests.oracles.dict_backend import DictBackend


def build_triangle() -> DictBackend:
    """Three nodes; 0→1, 1→2, 2→0 single-slot requests."""
    state = DictBackend()
    for _ in range(3):
        state.add_node(state.allocate_id(), birth_time=0.0, num_slots=1)
    state.assign_slot(0, 0, 1)
    state.assign_slot(1, 0, 2)
    state.assign_slot(2, 0, 0)
    return state


class TestBasicTopology:
    def test_add_node(self):
        state = DictBackend()
        state.add_node(state.allocate_id(), 0.0, num_slots=3)
        assert state.num_alive() == 1
        assert state.record(0).out_slots == [None, None, None]

    def test_duplicate_node_rejected(self):
        state = DictBackend()
        state.add_node(0, 0.0, 1)
        with pytest.raises(SimulationError):
            state.add_node(0, 1.0, 1)

    def test_assign_creates_edge_both_ways(self):
        state = build_triangle()
        assert 1 in set(state.neighbors(0))
        assert 0 in set(state.neighbors(1))

    def test_degrees(self):
        state = build_triangle()
        assert all(state.degree(u) == 2 for u in range(3))

    def test_num_edges(self):
        assert build_triangle().num_edges() == 3

    def test_self_loop_rejected(self):
        state = DictBackend()
        state.add_node(0, 0.0, 1)
        with pytest.raises(SimulationError):
            state.assign_slot(0, 0, 0)

    def test_assign_to_dead_rejected(self):
        state = build_triangle()
        state.remove_node(2, death_time=1.0)
        state.add_node(state.allocate_id(), 1.0, 1)
        with pytest.raises(SimulationError):
            state.assign_slot(3, 0, 2)

    def test_double_assign_rejected(self):
        state = build_triangle()
        with pytest.raises(SimulationError):
            state.assign_slot(0, 0, 2)

    def test_clear_slot(self):
        state = build_triangle()
        old = state.clear_slot(0, 0)
        assert old == 1
        assert 1 not in set(state.neighbors(0))
        assert state.record(0).out_slots == [None]

    def test_clear_empty_slot_returns_none(self):
        state = DictBackend()
        state.add_node(0, 0.0, 1)
        assert state.clear_slot(0, 0) is None

    def test_parallel_slots_single_edge(self):
        state = DictBackend()
        state.add_node(0, 0.0, 2)
        state.add_node(1, 0.0, 0)
        state.assign_slot(0, 0, 1)
        state.assign_slot(0, 1, 1)
        assert state.degree(0) == 1
        assert state.num_edges() == 1
        state.clear_slot(0, 0)
        # The second parallel request still supports the edge.
        assert state.degree(0) == 1

    def test_check_invariants_on_valid_state(self):
        build_triangle().check_invariants()


class TestRemoveNode:
    def test_returns_orphans(self):
        state = build_triangle()
        orphans = state.remove_node(1, death_time=2.0)
        assert orphans == [(0, 0)]

    def test_dead_node_not_alive(self):
        state = build_triangle()
        state.remove_node(1, death_time=2.0)
        assert not state.is_alive(1)
        assert state.num_alive() == 2

    def test_death_time_recorded(self):
        state = build_triangle()
        state.remove_node(1, death_time=2.5)
        assert state.record(1).death_time == 2.5

    def test_orphan_slots_cleared(self):
        state = build_triangle()
        state.remove_node(1, death_time=2.0)
        assert state.record(0).out_slots == [None]

    def test_dead_nodes_own_slots_cleared(self):
        state = build_triangle()
        state.remove_node(1, death_time=2.0)
        assert state.record(1).out_slots == [None]
        # node 2 no longer has 1 as a neighbour
        assert 1 not in set(state.neighbors(2))

    def test_remove_dead_rejected(self):
        state = build_triangle()
        state.remove_node(1, death_time=2.0)
        with pytest.raises(SimulationError):
            state.remove_node(1, death_time=3.0)

    def test_invariants_after_removal(self):
        state = build_triangle()
        state.remove_node(0, death_time=1.0)
        state.check_invariants()


class TestSampling:
    def test_sample_targets_excludes_self(self):
        state = build_triangle()
        rng = make_rng(0)
        for _ in range(50):
            targets = state.sample_targets(rng, 4, exclude=0)
            assert 0 not in targets
            assert len(targets) == 4

    def test_sample_targets_empty_network(self):
        state = DictBackend()
        state.add_node(0, 0.0, 1)
        assert state.sample_targets(make_rng(0), 3, exclude=0) == []


class TestSnapshot:
    def test_snapshot_is_frozen_copy(self):
        state = build_triangle()
        snap = state.snapshot(time=5.0)
        state.remove_node(0, death_time=6.0)
        assert 0 in snap.nodes
        assert snap.degree(0) == 2

    def test_snapshot_metadata(self):
        state = build_triangle()
        snap = state.snapshot(time=5.0)
        assert snap.time == 5.0
        assert snap.birth_times[1] == 0.0
        assert snap.out_slots[0] == (1,)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    num_ops=st.integers(1, 120),
    regen=st.booleans(),
)
def test_property_random_churn_preserves_invariants(seed, num_ops, regen):
    """Random birth/death sequences never violate the state invariants."""
    rng = make_rng(seed)
    policy = (RegenerationPolicy if regen else NoRegenerationPolicy)(d=3)
    state = DictBackend()
    # Track, per node, the minimum network size seen since its birth: a
    # regeneration slot can only stay empty if the network dropped to a
    # single node at some point (no candidate to re-sample).
    min_alive_since_birth: dict[int, int] = {}
    for _ in range(num_ops):
        if state.num_alive() == 0 or rng.random() < 0.55:
            new_id = state.allocate_id()
            policy.handle_birth(state, new_id, 0.0, rng)
            min_alive_since_birth[new_id] = state.num_alive()
        else:
            victim = state.alive.sample(rng)
            policy.handle_death(state, victim, 0.0, rng)
            min_alive_since_birth.pop(victim, None)
        size = state.num_alive()
        for u in min_alive_since_birth:
            min_alive_since_birth[u] = min(min_alive_since_birth[u], size)
    state.check_invariants()
    # With regeneration, every node that always had a candidate available
    # keeps its full out-degree of 3.
    if regen:
        for u in state.alive_ids():
            if min_alive_since_birth[u] >= 2:
                assert state.record(u).out_degree() == 3
