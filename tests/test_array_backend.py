"""Unit tests for the array slot-store backend.

Parity with the dict oracle is covered by test_backend_parity; these
tests exercise the array backend's own machinery — row recycling, array
growth, the lazy CSR, the vectorized boundary, and the batched churn
paths — including the corners the parity traces may not hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import GraphBackend, create_backend
from repro.core.edge_policy import CappedRegenerationPolicy, RegenerationPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.models.poisson import PDGR
from repro.models.streaming import SDGR
from tests.oracles.dict_backend import DictBackend


def build_triangle() -> ArraySlotBackend:
    state = ArraySlotBackend(initial_capacity=2, slot_width=1)
    for _ in range(3):
        state.add_node(state.allocate_id(), birth_time=0.0, num_slots=1)
    state.assign_slot(0, 0, 1)
    state.assign_slot(1, 0, 2)
    state.assign_slot(2, 0, 0)
    return state


class TestBasics:
    def test_triangle_queries(self):
        state = build_triangle()
        assert state.num_alive() == 3
        assert state.num_edges() == 3
        assert state.neighbors(0) == {1, 2}
        assert state.degree(1) == 2
        assert state.in_slot_count(2) == 1
        assert state.out_slots_of(2) == [0]
        assert state.has_edge(0, 1) and state.has_edge(1, 0)
        assert not state.has_edge(0, 3)
        state.check_invariants()

    def test_parallel_slots_collapse_to_one_edge(self):
        state = ArraySlotBackend(initial_capacity=2, slot_width=2)
        state.add_node(0, birth_time=0.0, num_slots=2)
        state.add_node(1, birth_time=0.0, num_slots=2)
        state.assign_slot(0, 0, 1)
        state.assign_slot(0, 1, 1)
        assert state.num_edges() == 1
        assert state.degree(0) == 1
        state.clear_slot(0, 0)
        assert state.num_edges() == 1  # still supported by slot 1
        state.clear_slot(0, 1)
        assert state.num_edges() == 0
        state.check_invariants()

    def test_error_paths_match_dict_backend(self):
        state = build_triangle()
        with pytest.raises(SimulationError):
            state.add_node(0, birth_time=0.0, num_slots=1)
        with pytest.raises(SimulationError):
            state.assign_slot(0, 0, 2)  # already assigned
        state.clear_slot(0, 0)
        with pytest.raises(SimulationError):
            state.assign_slot(0, 0, 0)  # self-loop
        with pytest.raises(SimulationError):
            state.assign_slot(0, 0, 99)  # not alive
        with pytest.raises(SimulationError):
            state.remove_node(99, death_time=0.0)

    def test_out_slots_of_returns_a_copy(self, backend_cls):
        state = backend_cls()
        state.add_node(0, birth_time=0.0, num_slots=1)
        state.add_node(1, birth_time=0.0, num_slots=1)
        state.assign_slot(0, 0, 1)
        slots = state.out_slots_of(0)
        slots[0] = None  # mutating the returned list must not touch state
        assert state.out_slots_of(0) == [1]
        state.check_invariants()

    def test_record_synthesis(self):
        state = build_triangle()
        record = state.record(1)
        assert record.node_id == 1
        assert record.out_slots == [2]
        assert record.is_alive
        state.remove_node(1, death_time=1.0)
        with pytest.raises(SimulationError):
            state.record(1)


class TestRecyclingAndGrowth:
    def test_rows_are_recycled(self):
        state = ArraySlotBackend(initial_capacity=4, slot_width=1)
        for _ in range(3):
            state.add_node(state.allocate_id(), 0.0, 1)
        row = state.row_for(1)
        state.remove_node(1, death_time=1.0)
        new_id = state.allocate_id()
        state.add_node(new_id, 2.0, 1)
        assert state.row_for(new_id) == row  # LIFO free list reuses the row
        assert state.birth_time(new_id) == 2.0
        assert state.in_slot_count(new_id) == 0
        assert state.out_slots_of(new_id) == [None]
        state.check_invariants()

    def test_capacity_growth_preserves_topology(self):
        state = ArraySlotBackend(initial_capacity=1, slot_width=1)
        rng = np.random.default_rng(0)
        policy = RegenerationPolicy(2)
        for _ in range(50):
            policy.handle_birth(state, state.allocate_id(), 0.0, rng)
        assert state.row_capacity() >= 50
        state.check_invariants()
        before = state.snapshot(0.0).to_dict()
        state.add_node(state.allocate_id(), 0.0, num_slots=6)  # widens columns
        state.check_invariants()
        after = state.snapshot(0.0)
        for u, nbrs in before["adjacency"].items():
            assert sorted(after.adjacency[int(u)]) == nbrs

    def test_memory_stays_bounded_under_churn(self):
        net = SDGR(n=16, d=2, seed=0, backend="array")
        cap_after_warm = net.state.row_capacity()
        net.run_rounds(400)  # 400 deaths + births through the free list
        assert net.state.row_capacity() == cap_after_warm
        net.state.check_invariants()


class TestVectorizedReads:
    def test_degree_vector_matches_per_node_degrees(self):
        net = SDGR(n=30, d=3, seed=1, backend="array")
        degs = net.state.degree_vector()
        for node_id, deg in zip(net.state.alive_ids(), degs):
            assert net.state.degree(node_id) == deg

    def test_boundary_of_matches_reference(self):
        net = SDGR(n=40, d=3, seed=2, backend="array")
        ids = net.state.alive_ids()
        for subset in (ids[:1], ids[:7], ids[: len(ids) // 2], ids):
            # The oracle's set-union implementation, over this backend's
            # neighbour sets.
            reference = DictBackend.boundary_of(net.state, subset)
            assert net.state.boundary_of(subset) == reference

    def test_csr_is_rebuilt_lazily(self):
        state = build_triangle()
        state.num_edges()
        first_epoch = state._csr_epoch
        state.num_edges()
        assert state._csr_epoch == first_epoch  # cached, no rebuild
        state.clear_slot(0, 0)
        state.num_edges()
        assert state._csr_epoch != first_epoch  # mutation invalidates

    @staticmethod
    def unique_csr(state: ArraySlotBackend) -> tuple[np.ndarray, np.ndarray]:
        """The CSR of the slot matrix, deduplicated with ``np.unique``."""
        cap = state.row_capacity()
        mask = state._slots >= 0
        src = np.nonzero(mask)[0]
        tgt = state._slots[mask]
        keys = np.unique(
            np.concatenate([src, tgt]) * np.int64(cap)
            + np.concatenate([tgt, src])
        )
        indptr = np.zeros(cap + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // cap, minlength=cap), out=indptr[1:])
        return indptr, keys % cap

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csr_dedupe_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        state = ArraySlotBackend(initial_capacity=4, slot_width=3)
        empty_indptr, empty_indices = state.adjacency_csr()
        reference = self.unique_csr(state)
        assert np.array_equal(empty_indptr, reference[0])
        assert empty_indices.size == 0 and reference[1].size == 0
        for _ in range(4):
            # Births with random (repeated) targets, then deaths whose
            # rows the next births recycle.
            for _ in range(12):
                node_id = state.allocate_id()
                state.add_node(node_id, birth_time=0.0, num_slots=3)
                others = [u for u in state.alive_ids() if u != node_id]
                for slot in range(3):
                    if others:
                        target = others[int(rng.integers(len(others)))]
                        state.assign_slot(node_id, slot, target)
            # A mutual request pair: u -> v and v -> u.
            alive = state.alive_ids()
            u, v = alive[-1], alive[-2]
            state.clear_slot(u, 0)
            state.clear_slot(v, 0)
            state.assign_slot(u, 0, v)
            state.assign_slot(v, 0, u)
            indptr, indices = state.adjacency_csr()
            ref_indptr, ref_indices = self.unique_csr(state)
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)
            for victim in rng.choice(alive, size=5, replace=False).tolist():
                state.remove_node(victim, death_time=0.0)
        assert state._high < state.peek_next_id()  # births reused dead rows

    def test_snapshot_equals_dict_snapshot(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a, b = DictBackend(), ArraySlotBackend(initial_capacity=2, slot_width=3)
        policy_a, policy_b = RegenerationPolicy(3), RegenerationPolicy(3)
        for _ in range(20):
            policy_a.handle_birth(a, a.allocate_id(), 1.0, rng_a)
            policy_b.handle_birth(b, b.allocate_id(), 1.0, rng_b)
        assert a.snapshot(9.0).to_dict() == b.snapshot(9.0).to_dict()


class TestBatchedChurn:
    def test_handle_births_marginals(self):
        """Batched births reproduce the sequential birth law (smoke check
        of sizes and structure; the law itself is uniform-with-replacement
        over the pre-existing pool)."""
        state = ArraySlotBackend(initial_capacity=8, slot_width=2)
        rng = np.random.default_rng(0)
        ids = state.allocate_ids(500)
        RegenerationPolicy(2).handle_births(state, ids, 0.0, rng)
        assert state.num_alive() == 500
        state.check_invariants()
        # First node had no candidates; everyone else filled both slots.
        assert state.out_slots_of(0) == [None, None]
        filled = [
            sum(1 for s in state.out_slots_of(u) if s is not None) for u in ids[1:]
        ]
        assert all(f == 2 for f in filled)
        # Newborn k can only point at earlier nodes.
        for u in ids[1:]:
            assert all(t < u for t in state.out_slots_of(u) if t is not None)

    @pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
    def test_add_nodes_counts_one_epoch_per_newborn(self, backend_cls):
        state = backend_cls()
        state.add_node(0, birth_time=0.0, num_slots=2)
        before = state.mutation_epoch()
        state.add_nodes([1, 2, 3], [1.0, 2.0, 3.0], 2)
        assert state.mutation_epoch() == before + 3

    def test_apply_deaths_batch(self):
        state = ArraySlotBackend(initial_capacity=8, slot_width=2)
        rng = np.random.default_rng(1)
        policy = RegenerationPolicy(2)
        for node_id in state.allocate_ids(30):
            policy.handle_birth(state, node_id, 0.0, rng)
        victims = [3, 4, 5, 6]
        orphans = state.apply_deaths(victims, death_time=1.0)
        assert all(not state.is_alive(v) for v in victims)
        # Orphans belong to survivors only, and their slots are cleared.
        for source, slot_index in orphans:
            assert state.is_alive(source)
            assert state.out_slots_of(source)[slot_index] is None
        state.check_invariants()

    def test_batched_warm_matches_model_distribution(self):
        """fast_warm builds a full-size network with the right shape."""
        net = SDGR(n=200, d=4, seed=6, backend="array", fast_warm=True)
        assert net.num_alive() == 200
        assert net.round_number == 200
        assert net.now == 200.0
        net.state.check_invariants()
        # Regeneration holds from here on: run churn rounds and re-check.
        net.run_rounds(50)
        net.state.check_invariants()
        degs = net.state.degree_vector()
        assert degs.mean() == pytest.approx(2 * 4, rel=0.25)

    @pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
    def test_handle_births_rejects_duplicate_ids(self, backend_cls):
        state = backend_cls()
        policy = RegenerationPolicy(1)
        rng = np.random.default_rng(0)
        policy.handle_births(state, [0, 1, 2], 0.0, rng)
        with pytest.raises(SimulationError):
            policy.handle_births(state, [2], 1.0, rng)
        with pytest.raises(SimulationError):
            policy.handle_births(state, [5, 5], 1.0, rng)
        state.check_invariants()

    def test_handle_deaths_batch_parity(self):
        """Policy-level batched deaths: identical topology on both
        backends, and one aggregate NodesDied record carrying every
        victim and all regenerated edges."""
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        pa, pb = RegenerationPolicy(2), RegenerationPolicy(2)
        a, b = DictBackend(), ArraySlotBackend(initial_capacity=4, slot_width=2)
        for node_id in a.allocate_ids(25):
            pa.handle_birth(a, node_id, 0.0, rng_a)
        for node_id in b.allocate_ids(25):
            pb.handle_birth(b, node_id, 0.0, rng_b)
        victims = [2, 9, 17]
        ra = pa.handle_deaths(a, victims, 1.0, rng_a)
        rb = pb.handle_deaths(b, victims, 1.0, rng_b)
        for record in (ra, rb):
            assert record.is_death and not record.is_birth
            assert record.node_ids == tuple(victims)
            with pytest.raises(ValueError):
                record.node_id
        assert [e.endpoints() for e in ra.edges_created] == [
            e.endpoints() for e in rb.edges_created
        ]
        # Destroyed edges are recorded once each, victim–victim included.
        destroyed_a = {tuple(sorted(e.endpoints())) for e in ra.edges_destroyed}
        destroyed_b = {tuple(sorted(e.endpoints())) for e in rb.edges_destroyed}
        assert destroyed_a == destroyed_b
        assert len(destroyed_a) == len(ra.edges_destroyed)  # deduped
        assert all(set(pair) & set(victims) for pair in destroyed_a)
        # Regenerated edges never target a same-batch victim.
        assert all(
            set(e.endpoints()).isdisjoint(victims) for e in ra.edges_created
        )
        assert a.snapshot(2.0).to_dict() == b.snapshot(2.0).to_dict()
        a.check_invariants()
        b.check_invariants()

    def test_capped_policy_rejects_batch_path(self):
        policy = CappedRegenerationPolicy(d=2, max_in_degree=3)
        assert not policy.supports_batch_birth
        state = ArraySlotBackend()
        rng = np.random.default_rng(0)
        policy.handle_births(state, state.allocate_ids(40), 0.0, rng)
        assert state.num_alive() == 40
        assert all(state.in_slot_count(u) <= 3 for u in state.alive_ids())
        state.check_invariants()


class TestBackendAnalysis:
    def test_live_degree_summary_matches_snapshot_summary(self, backend_cls):
        from repro.analysis.degrees import degree_summary, live_degree_summary

        net = SDGR(n=50, d=3, seed=8, backend=backend_cls())
        live = live_degree_summary(net.state)
        snap = degree_summary(net.snapshot())
        assert live == snap

    def test_probe_network_expansion_matches_snapshot_probe(self, backend_cls):
        from repro.analysis.expansion import (
            adversarial_expansion_upper_bound,
            probe_network_expansion,
        )

        # d=2 produces heavy degree ties, stressing the (degree, id)
        # tie-break contract shared by the two paths.
        for n, d in [(60, 6), (80, 2)]:
            net = SDGR(n=n, d=d, seed=9, backend=backend_cls())
            fast = probe_network_expansion(net, seed=1)
            reference = adversarial_expansion_upper_bound(net.snapshot(), seed=1)
            # Same candidate portfolio scored either way: identical minimum.
            assert fast.min_ratio == pytest.approx(reference.min_ratio)


def youngest_by_max(state) -> int:
    """The reference: ``max`` over the alive order, keyed by birth time."""
    return GraphBackend.youngest_alive(state)


class TestYoungestAlive:
    """The vectorised pass picks what ``max`` over the alive order picks."""

    def test_per_event_and_fused_streaming(self):
        net = SDGR(80, 3, seed=4)
        for step in range(12):
            if step % 2:
                net.run_rounds(7)
            else:
                net.advance_to_time_batched(net.now + 9, window=3)
            assert net.state.youngest_alive() == youngest_by_max(net.state)
            assert net.state.youngest_alive() == max(net.state.alive_ids())

    def test_poisson(self):
        net = PDGR(n=120, d=3, seed=9)
        for _ in range(10):
            net.advance_to_time(net.now + 3.0)
            assert net.state.youngest_alive() == youngest_by_max(net.state)

    def test_restored_session(self, tmp_path):
        from repro.scenario import ScenarioSpec, Simulation

        spec = ScenarioSpec(churn="poisson", n=60, d=3, horizon=20, seed=2)
        sim = Simulation(spec)
        sim._run_windows(8)
        path = sim.save_checkpoint(tmp_path / "ck.json")
        restored = Simulation.restore(path).network.state
        assert restored.youngest_alive() == youngest_by_max(restored)
        assert restored.youngest_alive() == sim.network.state.youngest_alive()

    def test_ties_go_to_the_first_in_alive_order(self):
        state = ArraySlotBackend(initial_capacity=4, slot_width=1)
        for node_id, time in enumerate([1.0, 5.0, 5.0, 2.0, 3.0, 5.0]):
            state.allocate_id()
            state.add_node(node_id, birth_time=time, num_slots=1)
        # The swap-pop discard moves the last member (5) into 1's place,
        # ahead of 2 in alive order though behind it in row order.
        state.remove_node(1, death_time=6.0)
        assert state.alive_ids() == [0, 5, 2, 3, 4]
        assert state.youngest_alive() == youngest_by_max(state) == 5
        state.remove_node(5, death_time=6.0)
        assert state.youngest_alive() == youngest_by_max(state) == 2

    def test_empty_network_raises(self):
        with pytest.raises(ConfigurationError, match="no alive nodes"):
            ArraySlotBackend().youngest_alive()


class TestFactory:
    def test_every_driver_accepts_backend_kwarg(self):
        from repro.baselines import CentralCacheNetwork, TokenNetwork
        from repro.churn.lifetime import ExponentialLifetime
        from repro.models.general import GDG, GDGR
        from repro.p2p import BitcoinLikeNetwork

        drivers = [
            GDG(ExponentialLifetime(20), d=2, seed=0, warm_time=10.0, backend="array"),
            GDGR(ExponentialLifetime(20), d=2, seed=0, warm_time=10.0, backend="array"),
            CentralCacheNetwork(n=12, d=2, seed=0, backend="array"),
            TokenNetwork(n=12, d=2, seed=0, backend="array"),
            BitcoinLikeNetwork(n=12, seed=0, warm_time=5.0, backend="array"),
        ]
        for net in drivers:
            assert isinstance(net.state, ArraySlotBackend)
            net.state.check_invariants()

    def test_create_backend_names(self):
        assert isinstance(create_backend(), ArraySlotBackend)
        assert isinstance(create_backend("array"), ArraySlotBackend)
        with pytest.raises(ConfigurationError):
            create_backend("bogus")

    def test_dict_name_points_at_the_oracle(self):
        with pytest.raises(ConfigurationError, match="tests/oracles/"):
            create_backend("dict")

    def test_instance_passthrough(self):
        state = ArraySlotBackend()
        assert create_backend(state) is state
        oracle = DictBackend()
        assert create_backend(oracle) is oracle

    def test_env_var_default(self, monkeypatch):
        # The environment no longer selects a backend: an old
        # REPRO_BACKEND or REPRO_COMPACT_CSR setting changes nothing.
        monkeypatch.setenv("REPRO_BACKEND", "dict")
        monkeypatch.setenv("REPRO_COMPACT_CSR", "1")
        state = create_backend()
        assert isinstance(state, ArraySlotBackend)

    def test_bare_driver_and_default_spec_build_the_array_backend(self):
        from repro.scenario import ScenarioSpec, Simulation

        assert isinstance(SDGR(20, 3, seed=0).state, ArraySlotBackend)
        sim = Simulation(ScenarioSpec(n=20, d=3, seed=0, backend=None))
        assert isinstance(sim.network.state, ArraySlotBackend)
