"""Tests for the incremental analysis plane: mutation tracking and the
window-to-window :class:`~repro.analysis.incremental.ProbeCache`.

The headline property: after *any* churn history, an incremental probe
is bit-identical — probe minimum, witness, witness size, and
``candidates_checked`` — to a cold recompute of the same portfolio, on
both topology backends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.analysis.incremental import ProbeCache
from repro.core.array_backend import ArraySlotBackend
from repro.errors import ConfigurationError
from repro.models import SDGR
from repro.models.streaming import StreamingNetwork
from repro.core.edge_policy import RAESPolicy
from tests.oracles.dict_backend import BACKENDS, DictBackend


def assert_probe_equal(a, b):
    assert a.min_ratio == b.min_ratio
    assert a.witness == b.witness
    assert a.witness_size == b.witness_size
    assert a.candidates_checked == b.candidates_checked


class TestMutationTracking:
    @pytest.fixture(params=[DictBackend, ArraySlotBackend])
    def backend(self, request):
        return request.param()

    def test_drain_requires_tracking(self, backend):
        with pytest.raises(ConfigurationError):
            backend.drain_touched()

    def test_epoch_advances_on_mutation(self, backend):
        before = backend.mutation_epoch()
        backend.add_node(0, birth_time=0.0, num_slots=2)
        assert backend.mutation_epoch() > before

    def test_births_touch_both_endpoints(self, backend):
        backend.track_mutations()
        backend.add_node(0, birth_time=0.0, num_slots=2)
        backend.add_node(1, birth_time=0.0, num_slots=2)
        backend.drain_touched()
        backend.assign_slot(0, 0, 1)
        assert backend.drain_touched() == {0, 1}
        assert backend.drain_touched() == set()  # drained

    def test_death_touches_neighbours_and_orphans(self, backend):
        backend.track_mutations()
        for u in range(3):
            backend.add_node(u, birth_time=0.0, num_slots=2)
        backend.assign_slot(0, 0, 1)  # 0 -> 1
        backend.assign_slot(2, 0, 0)  # 2 -> 0
        backend.drain_touched()
        backend.remove_node(0, death_time=1.0)
        # the dead node, its out-target, and the orphaned source
        assert backend.drain_touched() == {0, 1, 2}

    def test_tracking_is_idempotent(self, backend):
        backend.track_mutations()
        backend.add_node(7, birth_time=0.0, num_slots=1)
        backend.track_mutations()  # must not clear the pending set
        assert 7 in backend.drain_touched()


class TestProbeCacheProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        windows=st.integers(1, 4),
        rounds_between=st.integers(1, 6),
    )
    def test_incremental_bit_identical_after_random_churn(
        self, seed, windows, rounds_between
    ):
        probes = []
        for backend in ("dict", "array"):
            net = StreamingNetwork(
                80, RAESPolicy(d=3, c=2), seed=seed, backend=BACKENDS[backend]()
            )
            net.run_rounds(80)
            cache = ProbeCache(
                net.state, num_random_sets=8, greedy_restarts=3, max_size=16
            )
            for _ in range(windows):
                view = net.state.csr_view(net.now)
                incremental = cache.probe(view, seed=seed)
                cold = adversarial_expansion_upper_bound(
                    net.state.csr_view(net.now),
                    seed=seed,
                    num_random_sets=8,
                    greedy_restarts=3,
                    max_size=16,
                )
                assert_probe_equal(incremental, cold)
                net.run_rounds(rounds_between)
            probes.append(incremental)
        assert_probe_equal(*probes)  # and identical across backends


class TestProbeCacheMechanics:
    def test_stats_account_for_every_alive_root(self):
        net = SDGR(n=120, d=4, seed=9, backend="array")
        net.run_rounds(120)
        cache = ProbeCache(
            net.state, num_random_sets=8, greedy_restarts=2, max_size=20
        )
        cache.probe(net.state.csr_view(net.now), seed=0)
        assert cache.last_stats["recomputed"] == 120
        net.run_rounds(2)
        cache.probe(net.state.csr_view(net.now), seed=0)
        stats = cache.last_stats
        assert stats["replayed"] + stats["recomputed"] == stats["alive"]
        assert stats["dirty"] > 0

    def test_flush_forces_cold_recompute(self):
        net = SDGR(n=80, d=3, seed=4, backend="array")
        net.run_rounds(80)
        cache = ProbeCache(
            net.state, num_random_sets=4, greedy_restarts=2, max_size=12
        )
        cache.probe(net.state.csr_view(net.now), seed=1)
        cache.flush()
        probe = cache.probe(net.state.csr_view(net.now), seed=1)
        assert cache.last_stats["recomputed"] == 80
        cold = adversarial_expansion_upper_bound(
            net.state.csr_view(net.now),
            seed=1,
            num_random_sets=4,
            greedy_restarts=2,
            max_size=12,
        )
        assert_probe_equal(probe, cold)

    def test_cache_arena_entries_grouped_by_root(self):
        net = SDGR(n=60, d=3, seed=2, backend="array")
        net.run_rounds(60)
        cache = ProbeCache(
            net.state, num_random_sets=4, greedy_restarts=2, max_size=10
        )
        cache.probe(net.state.csr_view(net.now), seed=0)
        assert np.all(np.diff(cache._roots) > 0)  # unique, ascending
        assert cache._eoff[0] == 0
        assert cache._eoff[-1] == cache._e_root.size
        for i in range(cache._roots.size):
            block = cache._e_root[cache._eoff[i] : cache._eoff[i + 1]]
            assert np.all(block == cache._roots[i])
