"""Batched churn (grouped handle_births/handle_deaths) parity tests.

The batched paths draw the same churn *law* as the per-event paths with
different RNG stream consumption, so the tests are statistical: the size
process must match the per-event distribution, topology invariants must
hold, and the batched records must flatten correctly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn.lifetime import WeibullLifetime
from repro.models import GDGR, PDG, PDGR
from repro.models.base import RoundReport
from repro.models.general import GDG
from repro.sim.events import EventRecord, NodeBorn, NodesBorn, NodesDied


class TestRoundReportFlattening:
    def test_births_flatten_batched_records(self):
        report = RoundReport(
            start_time=0.0,
            end_time=1.0,
            events=[
                EventRecord(time=0.2, kind=NodeBorn(node_id=7)),
                EventRecord(time=0.9, kind=NodesBorn(node_ids=(8, 9, 10))),
            ],
        )
        assert report.births == [7, 8, 9, 10]
        assert report.deaths == []

    def test_deaths_flatten_batched_records(self):
        report = RoundReport(
            start_time=0.0,
            end_time=1.0,
            events=[EventRecord(time=0.5, kind=NodesDied(node_ids=(1, 2)))],
        )
        assert report.deaths == [1, 2]
        assert report.births == []

    def test_batched_kinds_have_no_single_node_id(self):
        record = EventRecord(time=0.0, kind=NodesBorn(node_ids=(1,)))
        assert record.is_birth and not record.is_death
        assert record.node_ids == (1,)
        with pytest.raises(ValueError):
            record.node_id


class TestPoissonBatched:
    def test_batched_reaches_target_time(self, backend_cls):
        net = PDG(n=50, d=2, seed=0, warm_time=0, backend=backend_cls())
        report = net.advance_to_time_batched(120.0)
        assert net.now == pytest.approx(120.0)
        assert report.end_time == pytest.approx(120.0)
        net.state.check_invariants()

    def test_batched_emits_grouped_records(self):
        net = PDG(n=50, d=2, seed=1, warm_time=0)
        report = net.advance_to_time_batched(100.0)
        kinds = [type(e.kind).__name__ for e in report.events]
        assert "NodesBorn" in kinds
        assert len(report.births) > 20
        assert net.num_alive() == len(report.births) - len(report.deaths)

    def test_windowed_batches_cover_span(self):
        net = PDGR(n=60, d=3, seed=2, warm_time=0)
        report = net.advance_to_time_batched(90.0, window=10.0)
        assert net.now == pytest.approx(90.0)
        # one NodesBorn record per window that had births
        born_records = [e for e in report.events if e.is_birth]
        assert len(born_records) >= 5
        net.state.check_invariants()

    def test_event_count_matches_flattened_records(self):
        net = PDGR(n=40, d=2, seed=3, warm_time=0)
        report = net.advance_to_time_batched(80.0)
        assert net.event_count == len(report.births) + len(report.deaths)

    def test_size_process_distribution_matches_per_event(self):
        """Same stationary size law on both paths (they simulate the same
        jump chain; only the topology application is grouped)."""
        batched, per_event = [], []
        for seed in range(24):
            fast = PDGR(n=60, d=2, seed=seed, fast_warm=True)
            slow = PDGR(n=60, d=2, seed=seed)
            batched.append(fast.num_alive())
            per_event.append(slow.num_alive())
        # M/M/∞ at n=60: mean 60, sd ≈ √60 ≈ 7.7.  24-trial means have
        # sd ≈ 1.6; a 6-sd corridor keeps the flake rate negligible.
        assert abs(np.mean(batched) - np.mean(per_event)) < 10.0

    def test_degree_distribution_matches_per_event(self):
        fast_means, slow_means = [], []
        for seed in range(8):
            fast = PDGR(n=80, d=4, seed=seed, fast_warm=True, backend="array")
            slow = PDGR(n=80, d=4, seed=seed, backend="array")
            fast_means.append(float(np.mean(fast.state.degree_vector())))
            slow_means.append(float(np.mean(slow.state.degree_vector())))
        assert abs(np.mean(fast_means) - np.mean(slow_means)) < 1.0

    def test_fast_warm_invariants_both_backends(self, backend_cls):
        net = PDGR(n=100, d=3, seed=5, fast_warm=True, backend=backend_cls())
        net.state.check_invariants()
        assert 50 < net.num_alive() < 150
        # the warmed network keeps evolving normally on the per-event path
        net.advance_round()
        net.state.check_invariants()


class TestGeneralBatched:
    def test_batched_reaches_target_and_schedules_lifetimes(self):
        law = WeibullLifetime(50.0, shape=0.5)
        net = GDGR(law, d=3, seed=0, warm_time=0)
        report = net.advance_to_time_batched(150.0, window=25.0)
        assert net.now == pytest.approx(150.0)
        assert len(report.births) > 50
        assert len(report.deaths) > 0  # Weibull k=0.5 has many infant deaths
        net.state.check_invariants()
        # every survivor still has a scheduled death
        assert len(net.deaths) == net.num_alive()

    def test_size_process_distribution_matches_per_event(self):
        batched, per_event = [], []
        for seed in range(12):
            fast = GDG(WeibullLifetime(40.0, shape=0.5), d=2, seed=seed,
                       warm_time=120.0, fast_warm=True)
            slow = GDG(WeibullLifetime(40.0, shape=0.5), d=2, seed=seed,
                       warm_time=120.0)
            batched.append(fast.num_alive())
            per_event.append(slow.num_alive())
        assert abs(np.mean(batched) - np.mean(per_event)) < 12.0

    def test_fast_warm_invariants(self, backend_cls):
        net = GDGR(
            WeibullLifetime(60.0, shape=0.5), d=3, seed=4,
            fast_warm=True, backend=backend_cls(),
        )
        net.state.check_invariants()
        assert net.num_alive() > 10
