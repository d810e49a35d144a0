"""Failure-injection tests: corrupted state must be *detected*, not ignored.

`DictBackend.check_invariants` (the dict oracle's) is the safety net
behind every parity suite; these tests corrupt each index it guards and
assert the corruption is caught.
"""

from __future__ import annotations

import pytest

from repro.core.edge_policy import RegenerationPolicy
from repro.errors import SimulationError
from repro.util.rng import make_rng
from tests.oracles.dict_backend import DictBackend


def healthy_state(num_nodes: int = 6, d: int = 2, seed: int = 0) -> DictBackend:
    policy = RegenerationPolicy(d)
    state = DictBackend()
    rng = make_rng(seed)
    for _ in range(num_nodes):
        policy.handle_birth(state, state.allocate_id(), 0.0, rng)
    return state


class TestInvariantDetection:
    def test_healthy_state_passes(self):
        healthy_state().check_invariants()

    def test_detects_stale_in_ref(self):
        state = healthy_state()
        # Register a reference for a slot that does not point there.
        state.in_refs[0].add((5, 1))
        victim_slot = state.records[5].out_slots[1]
        if victim_slot == 0:  # ensure it is genuinely stale
            state.records[5].out_slots[1] = None
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_missing_in_ref(self):
        state = healthy_state()
        source, slot_index, target = _an_assigned_slot(state)
        state.in_refs[target].discard((source, slot_index))
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_asymmetric_adjacency(self):
        state = healthy_state()
        source, _, target = _an_assigned_slot(state)
        del state.adj[target][source]
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_wrong_multiplicity(self):
        state = healthy_state()
        source, _, target = _an_assigned_slot(state)
        state.adj[source][target] += 1
        state.adj[target][source] += 1
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_detects_slot_to_dead_node(self):
        state = healthy_state()
        source, slot_index, target = _an_assigned_slot(state)
        # Kill the target behind the state's back.
        state.alive.discard(target)
        with pytest.raises(SimulationError):
            state.check_invariants()

    def test_decrement_of_missing_edge_raises(self):
        state = healthy_state()
        with pytest.raises(SimulationError):
            state._adj_decrement(0, 0)


class TestApiMisuse:
    def test_remove_never_added_node(self):
        state = DictBackend()
        with pytest.raises(SimulationError):
            state.remove_node(3, death_time=0.0)

    def test_snapshot_survives_corrupt_free_mutation(self):
        """Snapshots are decoupled: mutating the state afterwards cannot
        invalidate an already-taken snapshot."""
        state = healthy_state()
        snap = state.snapshot(time=1.0)
        before = {u: set(snap.adjacency[u]) for u in snap.nodes}
        state.remove_node(0, death_time=2.0)
        after = {u: set(snap.adjacency[u]) for u in snap.nodes}
        assert before == after


def _an_assigned_slot(state: DictBackend) -> tuple[int, int, int]:
    for node_id in state.alive_ids():
        for slot_index, target in enumerate(state.records[node_id].out_slots):
            if target is not None:
                return node_id, slot_index, target
    raise AssertionError("no assigned slot in healthy state")
