"""Round reports whose records are built only when read.

Exact per-event streaming rounds log plain ints and lists per round;
``RoundReport.events`` turns them into ``EventRecord`` objects on first
read and caches them.  These tests check that an unread report builds
no record, that a lazy report is indistinguishable from a read one (and
from the policy hooks' records, types included), that merging keeps the
order and shares record objects between readers, and that an in-flight
observer window checkpoints to the same payload.  Only NumPy and pytest
are needed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.edge_policy import RegenerationPolicy
from repro.models.base import RoundReport
from repro.models.streaming import SDG, SDGR, StreamingNetwork
from repro.scenario import ScenarioSpec, Simulation
from repro.scenario.observers import Observer
from repro.service.checkpoint import build_payload, encode_report
from repro.sim.events import EdgeCreated, EventRecord, NodeBorn


class HookRegeneration(RegenerationPolicy):
    def repair_orphans(self, state, orphaned, time, rng, record):
        super().repair_orphans(state, orphaned, time, rng, record)


@pytest.fixture
def built(monkeypatch) -> list[EventRecord]:
    """Every ``EventRecord`` constructed while the test runs."""
    made: list[EventRecord] = []
    init = EventRecord.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(EventRecord, "__init__", counting_init)
    return made


def shape(report: RoundReport) -> list:
    """A report's full content, edge record types included."""
    return [
        report.start_time,
        report.end_time,
        [
            (
                event.time,
                type(event.kind),
                event.node_ids,
                [(type(e), tuple(e)) for e in event.edges_created],
                [(type(e), tuple(e)) for e in event.edges_destroyed],
            )
            for event in report.events
        ],
    ]


@pytest.mark.parametrize("make", [SDGR, SDG])
def test_unread_reports_build_no_records(built, make):
    network = make(n=40, d=3, seed=1)
    reports = network.run_rounds(60)
    reports.append(network.advance_round())
    assert built == []
    assert len(reports[0].events) == 2
    assert len(built) == 2


def test_an_unread_session_builds_no_records(built):
    spec = ScenarioSpec(churn="streaming", policy="regen", n=60, d=3, horizon=50)
    sim = Simulation(
        spec, observers=[{"name": "degrees", "params": {"every": 5}}], seed=2
    )
    sim.run()
    assert built == []


@pytest.mark.parametrize("warm", [True, False])
def test_lazy_reports_equal_the_hook_records(warm):
    kernel = SDGR(n=30, d=3, seed=3, warm=warm)
    hooks = StreamingNetwork(30, HookRegeneration(3), seed=3, warm=warm)
    lazy = kernel.run_rounds(80)
    expected = hooks.run_rounds(80)
    assert [shape(r) for r in lazy] == [shape(r) for r in expected]
    assert lazy == expected


def test_records_depend_only_on_event_time_data():
    early = SDGR(n=20, d=4, seed=4)
    late = SDGR(n=20, d=4, seed=4)
    read_at_once = []
    for _ in range(50):
        report = early.advance_round()
        report.events
        read_at_once.append(report)
    unread = late.run_rounds(50)
    late.run_rounds(60)  # every row of those rounds is reused since
    assert [shape(r) for r in unread] == [shape(r) for r in read_at_once]


def test_lazy_report_compares_prints_and_pickles_as_read():
    lazy = SDGR(n=25, d=3, seed=5).run_rounds(10)
    read = SDGR(n=25, d=3, seed=5).run_rounds(10)
    for report in read:
        report.events
    assert pickle.dumps(lazy) == pickle.dumps(read)
    assert pickle.loads(pickle.dumps(lazy)) == read
    assert repr(lazy) == repr(read)
    assert lazy == read
    assert lazy[0] != lazy[1]
    assert lazy[0] != "RoundReport"
    with pytest.raises(TypeError):
        hash(lazy[0])


def test_pickled_lazy_report_is_a_plain_one():
    report = SDGR(n=25, d=3, seed=6).advance_round()
    copy = pickle.loads(pickle.dumps(report))
    assert copy.events == report.events
    assert all(type(e) is EdgeCreated for e in copy.events[1].edges_created)


def test_births_and_deaths_of_lazy_reports():
    network = SDG(n=10, d=2, seed=7, warm=False)
    reports = network.run_rounds(15)
    assert [r.births for r in reports] == [[k] for k in range(15)]
    assert [r.deaths for r in reports] == [[]] * 10 + [[k] for k in range(5)]
    merged = RoundReport(0.0, 15.0)
    for report in SDG(n=10, d=2, seed=7, warm=False).run_rounds(15):
        merged.extend(report)
    assert merged.births == list(range(15))
    assert merged.deaths == list(range(5))


def flattened(report: RoundReport) -> tuple[list[int], list[int]]:
    """Births and deaths flattened from the decoded records."""
    events = report.events
    return (
        [u for e in events if e.is_birth for u in e.node_ids],
        [u for e in events if e.is_death for u in e.node_ids],
    )


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("make", [SDGR, SDG])
def test_births_and_deaths_equal_the_decoded_records(built, make, read_first):
    reports = make(n=8, d=2, seed=3, warm=False).run_rounds(20)
    for report in reports:
        if read_first:
            report.events
        births, deaths = report.births, report.deaths
        assert (births, deaths) == flattened(report)
    # Every round decoded once: 20 births, and a death in each round
    # after the first n = 8.
    assert len(built) == 20 + 12


def test_a_flood_decodes_no_record(monkeypatch):
    from repro.flooding import flood_discrete
    from repro.models import base

    def run():
        network = SDGR(n=300, d=4, seed=11, fast_warm=True)
        network.advance_rounds(40)  # a fused window drops the index
        return flood_discrete(network)

    decoded = []
    decode = base.decode_round_log

    def spy(log):
        decoded.append(log)
        return decode(log)

    monkeypatch.setattr(base, "decode_round_log", spy)
    result = run()
    assert decoded == []
    # The same flood with every report read through its records.
    monkeypatch.setattr(
        RoundReport, "births", property(lambda report: flattened(report)[0])
    )
    assert run() == result
    assert decoded


def test_append_onto_a_lazy_report_keeps_order():
    report = SDGR(n=12, d=2, seed=8).advance_round()
    extra = EventRecord(time=99.0, kind=NodeBorn(node_id=1000))
    report.events.append(extra)
    assert [e.node_ids for e in report.events] == [(0,), (12,), (1000,)]
    assert report.births == [12, 1000]


def test_extend_keeps_order_across_read_and_unread_parts():
    rounds = SDGR(n=12, d=2, seed=9).run_rounds(6)
    twin = SDGR(n=12, d=2, seed=9).run_rounds(6)
    marker = EventRecord(time=0.5, kind=NodeBorn(node_id=500))
    plain = RoundReport(0.0, 1.0, events=[marker])

    merged = RoundReport(0.0, 0.0, events=[marker])  # read prefix
    merged.extend(rounds[0])  # an unread round
    merged.extend(plain)  # read events after unread ones
    inner = RoundReport(0.0, 0.0)
    inner.extend(rounds[1])
    inner.extend(rounds[2])
    merged.extend(inner)  # an unread merge
    twin[3].events
    merged.extend(twin[3])  # a read round
    merged.extend(rounds[4])

    expected = [marker, *twin[0].events, marker]
    expected += [*twin[1].events, *twin[2].events, *twin[3].events]
    expected += twin[4].events
    assert merged.events == expected
    assert merged.events[1] is rounds[0].events[0]


class Keeper(Observer):
    """Keeps every window's records as it received them."""

    name = "keeper"

    def __init__(self, every: int) -> None:
        super().__init__(every=every)
        self.seen: list[EventRecord] = []

    def on_round(self, report: RoundReport) -> None:
        self.seen.extend(report.events)


def test_observer_feeds_share_record_objects():
    spec = ScenarioSpec(churn="streaming", policy="regen", n=40, d=3, horizon=24)
    fine, coarse = Keeper(every=3), Keeper(every=8)
    sim = Simulation(spec, observers=[fine, coarse], seed=10)
    sim.run()
    assert len(fine.seen) == len(coarse.seen) == 48
    assert all(a is b for a, b in zip(fine.seen, coarse.seen))


def test_in_flight_window_checkpoints_as_read():
    spec = ScenarioSpec(churn="streaming", policy="regen", n=40, d=3, horizon=30)
    observers = [
        {"name": "degrees", "params": {"every": 10}},
        {"name": "size", "params": {"every": 4}},
    ]
    lazy = Simulation(spec, observers=observers, seed=11)
    read = Simulation(spec, observers=observers, seed=11)
    lazy.run(7)
    read.run(7)
    for feed in read._feeds:
        feed.window.events
    payload = build_payload(lazy)  # reads the lazy windows
    assert payload == build_payload(read)
    windows = [encode_report(feed.window) for feed in lazy._feeds]
    assert windows == [encode_report(feed.window) for feed in read._feeds]
    assert all(window["events"] for window in windows)
