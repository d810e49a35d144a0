"""Tests for the shared driver interface (RoundReport, DynamicNetwork)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.models import PDGR, SDGR
from repro.models.base import RoundReport
from repro.service.checkpoint import decode_event, encode_event
from repro.sim.events import (
    EdgeCreated,
    EdgeDestroyed,
    EventRecord,
    NodeBorn,
    NodeDied,
)


class TestRoundReport:
    def test_births_and_deaths_extracted(self):
        report = RoundReport(start_time=0.0, end_time=1.0)
        report.events.append(EventRecord(time=0.3, kind=NodeBorn(node_id=7)))
        report.events.append(EventRecord(time=0.6, kind=NodeDied(node_id=2)))
        report.events.append(EventRecord(time=0.9, kind=NodeBorn(node_id=8)))
        assert report.births == [7, 8]
        assert report.deaths == [2]

    def test_empty_report(self):
        report = RoundReport(start_time=0.0, end_time=1.0)
        assert report.births == []
        assert report.deaths == []


class TestDriverInterface:
    def test_d_property(self):
        assert SDGR(n=20, d=5, seed=0).d == 5
        assert PDGR(n=20, d=3, seed=0, warm_time=0).d == 3

    def test_now_tracks_clock(self):
        net = SDGR(n=20, d=2, seed=1)
        before = net.now
        net.advance_round()
        assert net.now == before + 1.0

    def test_run_rounds_returns_reports(self):
        net = SDGR(n=20, d=2, seed=2)
        reports = net.run_rounds(5)
        assert len(reports) == 5
        assert all(isinstance(r, RoundReport) for r in reports)
        assert [r.end_time for r in reports] == sorted(r.end_time for r in reports)

    def test_streaming_round_report_contents(self):
        net = SDGR(n=20, d=2, seed=3)
        report = net.advance_round()
        assert len(report.births) == 1
        assert len(report.deaths) == 1
        # Regeneration edges are attached to the death event record.
        death_event = next(e for e in report.events if e.is_death)
        for edge in death_event.edges_created:
            assert net.state.is_alive(edge.source)

    def test_poisson_round_report_contents(self):
        net = PDGR(n=50, d=2, seed=4)
        report = net.advance_round()
        assert report.end_time - report.start_time == pytest.approx(1.0)
        for event in report.events:
            assert report.start_time < event.time <= report.end_time

    def test_event_record_properties(self):
        event = EventRecord(time=1.0, kind=NodeBorn(node_id=4))
        assert event.is_birth and not event.is_death
        assert event.node_id == 4
        died = EventRecord(time=2.0, kind=NodeDied(node_id=9))
        assert died.is_death and not died.is_birth

    def test_edge_endpoint_helpers(self):
        assert EdgeCreated(1, 2).endpoints() == (1, 2)
        assert EdgeDestroyed(3, 4).endpoints() == (3, 4)


class TestEdgeRecords:
    """The per-edge record surface the drivers, flooding and checkpoints use."""

    @pytest.mark.parametrize("cls", [EdgeCreated, EdgeDestroyed])
    def test_fields_and_endpoints(self, cls):
        edge = cls(source=5, target=9)
        assert (edge.source, edge.target) == (5, 9)
        assert edge.endpoints() == (5, 9)
        assert edge == cls(5, 9)
        assert hash(edge) == hash(cls(5, 9))
        # A record is a tuple: it compares equal to (source, target).
        assert edge == (5, 9)

    @pytest.mark.parametrize("cls", [EdgeCreated, EdgeDestroyed])
    def test_records_are_immutable(self, cls):
        edge = cls(1, 2)
        with pytest.raises(AttributeError):
            edge.source = 3
        with pytest.raises(AttributeError):
            edge.weight = 1.0

    @pytest.mark.parametrize("cls", [EdgeCreated, EdgeDestroyed])
    def test_records_pickle(self, cls):
        edge = cls(4, 7)
        restored = pickle.loads(pickle.dumps(edge))
        assert type(restored) is cls
        assert restored == edge

    def test_event_codec_round_trip(self):
        event = EventRecord(
            time=2.5,
            kind=NodeDied(node_id=3),
            edges_created=[EdgeCreated(8, 1), EdgeCreated(6, 2)],
            edges_destroyed=[EdgeDestroyed(3, 8), EdgeDestroyed(3, 6)],
        )
        decoded = decode_event(json.loads(json.dumps(encode_event(event))))
        assert decoded == event
        assert all(type(e) is EdgeCreated for e in decoded.edges_created)
        assert all(type(e) is EdgeDestroyed for e in decoded.edges_destroyed)

    def test_live_records_round_trip(self):
        net = SDGR(n=30, d=3, seed=5)
        for event in net.advance_round().events:
            assert decode_event(encode_event(event)) == event
