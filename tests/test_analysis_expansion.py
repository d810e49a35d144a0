"""Tests for expansion measurement (exact + adversarial probes)."""

from __future__ import annotations

import pytest

from repro.analysis.expansion import (
    adversarial_expansion_upper_bound,
    large_set_expansion_probe,
    vertex_expansion_exact,
)
from repro.errors import AnalysisError
from repro.models import SDGR, static_d_out_snapshot
from tests.conftest import (
    complete_snapshot,
    cycle_snapshot,
    path_snapshot,
    snapshot_from_edges,
)


class TestExact:
    def test_complete_graph(self):
        """h_out(K_n) = ceil(n/2)/floor(n/2) ≥ 1; the minimiser is any
        half-sized set whose boundary is everything else."""
        probe = vertex_expansion_exact(complete_snapshot(6))
        assert probe.min_ratio == pytest.approx(1.0)
        assert probe.witness_size == 3

    def test_path_minimiser_is_half(self):
        """On a path, taking one end half gives boundary 1."""
        probe = vertex_expansion_exact(path_snapshot(8))
        assert probe.min_ratio == pytest.approx(0.25)
        assert probe.witness_size == 4

    def test_cycle(self):
        """On a cycle, a contiguous arc of length n/2 has boundary 2."""
        probe = vertex_expansion_exact(cycle_snapshot(10))
        assert probe.min_ratio == pytest.approx(2 / 5)

    def test_isolated_node_gives_zero(self):
        snap = snapshot_from_edges(5, [(0, 1), (1, 2)])
        probe = vertex_expansion_exact(snap)
        assert probe.min_ratio == 0.0
        assert probe.witness_size == 1

    def test_disconnected_component_gives_zero(self):
        snap = snapshot_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        probe = vertex_expansion_exact(snap)
        assert probe.min_ratio == 0.0

    def test_too_large_rejected(self):
        with pytest.raises(AnalysisError):
            vertex_expansion_exact(cycle_snapshot(30))

    def test_too_small_rejected(self):
        with pytest.raises(AnalysisError):
            vertex_expansion_exact(snapshot_from_edges(1, []))


class TestAdversarial:
    def test_upper_bounds_exact(self):
        """The adversarial probe is a valid upper bound on h_out."""
        for snap in [path_snapshot(12), cycle_snapshot(14)]:
            exact = vertex_expansion_exact(snap)
            probe = adversarial_expansion_upper_bound(snap, seed=0)
            assert probe.min_ratio >= exact.min_ratio - 1e-12

    def test_finds_path_cut(self):
        """On a path the BFS-ball candidates find the optimal end cut."""
        probe = adversarial_expansion_upper_bound(path_snapshot(20), seed=1)
        assert probe.min_ratio == pytest.approx(0.1)

    def test_finds_isolated_node(self):
        snap = snapshot_from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        probe = adversarial_expansion_upper_bound(snap, seed=2)
        assert probe.min_ratio == 0.0
        assert probe.witness_size == 1

    def test_witness_is_real_set(self):
        snap = cycle_snapshot(16)
        probe = adversarial_expansion_upper_bound(snap, seed=3)
        assert snap.expansion_of(probe.witness) == pytest.approx(probe.min_ratio)

    def test_size_window_respected(self):
        snap = cycle_snapshot(20)
        probe = adversarial_expansion_upper_bound(snap, seed=4, min_size=3, max_size=5)
        assert 3 <= probe.witness_size <= 5

    def test_empty_window_rejected(self):
        with pytest.raises(AnalysisError):
            adversarial_expansion_upper_bound(cycle_snapshot(10), min_size=9, max_size=2)

    def test_zero_min_size_is_clamped_to_one(self):
        """No set is empty: a window from 0 probes the same sets as from 1."""
        net = SDGR(n=60, d=4, seed=1)
        net.run_rounds(3)
        view = net.state.csr_view(net.now)
        assert adversarial_expansion_upper_bound(
            view, seed=1, min_size=0, max_size=3
        ) == adversarial_expansion_upper_bound(view, seed=1, min_size=1, max_size=3)

    def test_static_d3_graph_expands(self):
        """Lemma B.1: static 3-out graphs expand; probe stays above 0.1."""
        snap = static_d_out_snapshot(300, 3, seed=5)
        probe = adversarial_expansion_upper_bound(snap, seed=6)
        assert probe.min_ratio > 0.1

    def test_sdgr_snapshot_expands(self):
        """Theorem 3.15 shape at moderate n."""
        net = SDGR(n=200, d=14, seed=7)
        net.run_rounds(200)
        probe = adversarial_expansion_upper_bound(net.snapshot(), seed=8)
        assert probe.min_ratio > 0.1


class TestLargeSetProbe:
    def test_window_and_witness(self):
        snap = cycle_snapshot(30)
        probe = large_set_expansion_probe(snap, min_size=5, max_size=15, seed=0)
        assert 5 <= probe.witness_size <= 15
        assert snap.expansion_of(probe.witness) == pytest.approx(probe.min_ratio)

    def test_age_extreme_candidates_used(self):
        """On an SDG snapshot the oldest-k sets have poor expansion; the
        probe must find a set at least as bad as the oldest-k candidate."""
        net = SDGR(n=100, d=4, seed=1)
        net.run_rounds(100)
        snap = net.snapshot()
        by_age = sorted(snap.nodes, key=snap.age)
        oldest_ratio = snap.expansion_of(by_age[-20:])
        probe = large_set_expansion_probe(snap, min_size=20, max_size=50, seed=2)
        assert probe.min_ratio <= oldest_ratio + 1e-12

    def test_empty_window_rejected(self):
        with pytest.raises(AnalysisError):
            large_set_expansion_probe(cycle_snapshot(10), min_size=20)
