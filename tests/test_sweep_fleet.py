"""Fleet-plane tests: the submit → worker → reduce lifecycle and its
acceptance bar — sequential, N local workers, concurrent workers on a
shared store, and warm resume must all reduce to byte-identical
artifact cores, on both topology backends; a worker killed mid-cell
must leave the store consistent and its claim takeoverable."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import repro
import repro.api.sweeps as sweeps_api
from repro.api import (
    collect,
    gc_store,
    load_submission,
    run_fleet,
    run_worker,
    submit_sweep,
    sweep_status,
)
from repro.errors import ConfigurationError, SweepError
from repro.scenario import ScenarioSpec
from repro.sweep import (
    ResultStore,
    SweepResult,
    SweepSpec,
    measurement,
    run_sweep,
)
from repro.sweep.artifact import (
    ARTIFACT_FORMAT,
    artifact_path,
    submitted_spec_path,
    sweep_key,
)
from repro.sweep.store import canonical_json
from repro.util.rng import SeedLike, make_rng

BASE = ScenarioSpec(churn="streaming", policy="none", n=40, d=2, horizon=10)


@measurement("pytest-fleet-echo")
def fleet_echo(spec: ScenarioSpec, seed: SeedLike) -> dict:
    return {"draw": float(make_rng(seed).random()), "d": spec.d}


@measurement("pytest-fleet-fail-at-d3")
def fleet_fail_at_d3(spec: ScenarioSpec, seed: SeedLike) -> dict:
    if spec.d == 3:
        raise ValueError("d=3 fleet cell exploded (intentionally)")
    return {"d": spec.d}


@measurement("pytest-fleet-kill-once")
def fleet_kill_once(
    spec: ScenarioSpec, seed: SeedLike, marker: str = ""
) -> dict:
    """Dies mid-cell (no cleanup, claim left behind) exactly once."""
    if spec.d == 3 and marker and not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("killed here")
        os._exit(1)
    return {"d": spec.d}


@measurement("pytest-fleet-kill-at-d3")
def fleet_kill_at_d3(spec: ScenarioSpec, seed: SeedLike) -> dict:
    if spec.d == 3:
        os._exit(1)  # simulate an OOM-killed / segfaulted worker
    return {"d": spec.d}


def fleet_sweep(**changes) -> SweepSpec:
    defaults = dict(
        base=BASE,
        axes=[("d", (2, 3))],
        replicas=3,
        seed=0,
        stream="pytest-fleet",
        measure="pytest-fleet-echo",
    )
    defaults.update(changes)
    return SweepSpec(**defaults)


class TestByteIdentity:
    def test_all_execution_shapes_reduce_identically(self, tmp_path):
        sweep = fleet_sweep()
        sequential = run_fleet(sweep, tmp_path / "s1", workers=1)
        parallel = run_fleet(sweep, tmp_path / "s2", workers=2)
        assert sequential.core_bytes() == parallel.core_bytes()
        assert sequential.digest == parallel.digest
        # Warm resume: reducing the already-complete store again, with no
        # workers at all, yields the same core.
        warm = collect(tmp_path / "s2", sweep, timeout=0)
        assert warm.core_bytes() == sequential.core_bytes()
        # And the artifact on disk round-trips to the same core.
        loaded = SweepResult.load(tmp_path / "s1", sequential.key)
        assert loaded is not None
        assert loaded.core_bytes() == sequential.core_bytes()
        # run_sweep drains with the same engine: its values equal the
        # fleet artifact's at every worker count, with or without a
        # store, and a stored run leaves the same artifact core.
        for jobs in (1, 2):
            store = tmp_path / f"run-sweep-{jobs}"
            ephemeral = run_sweep(sweep, jobs=jobs)
            stored = run_sweep(sweep, jobs=jobs, store=store)
            assert ephemeral.values() == list(sequential.values)
            assert stored.values() == list(sequential.values)
            artifact = SweepResult.load(store, sequential.key)
            assert artifact is not None
            assert artifact.core_bytes() == sequential.core_bytes()

    def test_two_workers_one_store_split_the_grid(self, tmp_path):
        # Concurrent workers against one store: the grid completes, no
        # cell is lost, and the reduction equals the sequential core.
        sweep = fleet_sweep()
        submission = submit_sweep(sweep, tmp_path / "shared")
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(
                target=run_worker,
                args=(str(tmp_path / "shared"), submission.key),
                kwargs={"host": f"racer-{rank}", "wait": 10.0},
            )
            for rank in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        shared = collect(tmp_path / "shared", submission, timeout=0)
        solo = run_fleet(sweep, tmp_path / "solo", workers=1)
        assert shared.core_bytes() == solo.core_bytes()

    def test_backend_is_part_of_sweep_identity(self):
        # The identity keeps a fixed "array" backend component, so keys
        # of stores written with the array backend do not change.
        sweep = fleet_sweep()
        identity = {
            "format": ARTIFACT_FORMAT,
            "version": repro.__version__,
            "sweep": sweep.to_dict(),
            "backend": "array",
        }
        expected = hashlib.sha256(
            canonical_json(identity).encode("utf-8")
        ).hexdigest()
        assert sweep_key(sweep) == sweep.sweep_key() == expected

    def test_dict_store_fails_loudly(self, tmp_path):
        # A store submitted when the dict backend existed records
        # "backend": "dict"; opening it names where that backend went.
        sweep = fleet_sweep()
        submission = submit_sweep(sweep, tmp_path)
        path = submitted_spec_path(tmp_path, submission.key)
        document = json.loads(path.read_text())
        document["backend"] = "dict"
        path.write_text(json.dumps(document))
        for open_store in (
            lambda: load_submission(tmp_path, submission.key),
            lambda: run_worker(tmp_path, submission.key),
            lambda: gc_store(tmp_path),
        ):
            with pytest.raises(ConfigurationError, match="tests/oracles/"):
                open_store()


class TestLifecycle:
    def test_submit_is_idempotent(self, tmp_path):
        sweep = fleet_sweep()
        first = submit_sweep(sweep, tmp_path)
        doc = submitted_spec_path(tmp_path, first.key).read_bytes()
        second = submit_sweep(sweep, tmp_path)
        assert first == second
        assert submitted_spec_path(tmp_path, first.key).read_bytes() == doc

    def test_load_submission_by_key(self, tmp_path):
        sweep = fleet_sweep()
        submitted = submit_sweep(sweep, tmp_path)
        loaded = load_submission(tmp_path, submitted.key)
        assert loaded.sweep == sweep
        assert loaded.backend == submitted.backend
        assert loaded.measure_module == submitted.measure_module

    def test_load_submission_rejects_tampered_document(self, tmp_path):
        sweep = fleet_sweep()
        submitted = submit_sweep(sweep, tmp_path)
        path = submitted_spec_path(tmp_path, submitted.key)
        doc = json.loads(path.read_text())
        doc["sweep"]["seed"] = 999  # key no longer derives from content
        path.write_text(json.dumps(doc))
        with pytest.raises(SweepError, match="does not verify"):
            load_submission(tmp_path, submitted.key)

    def test_status_tracks_progress(self, tmp_path):
        sweep = fleet_sweep()
        submission = submit_sweep(sweep, tmp_path)
        before = sweep_status(tmp_path, submission)
        assert (before.total, before.done, before.claimed) == (6, 0, 0)
        assert before.pending == 6 and not before.complete
        report = run_worker(tmp_path, submission, max_cells=2)
        assert len(report.executed) == 2
        mid = sweep_status(tmp_path, submission)
        assert mid.done == 2 and mid.missing == (2, 3, 4, 5)
        run_worker(tmp_path, submission)
        after = sweep_status(tmp_path, submission)
        assert after.complete and after.missing == ()

    def test_second_worker_sees_warm_store(self, tmp_path):
        sweep = fleet_sweep()
        first = run_worker(tmp_path, sweep)
        assert len(first.executed) == sweep.num_cells
        second = run_worker(tmp_path, sweep)
        assert second.executed == ()
        assert second.cached == sweep.num_cells

    def test_collect_timeout_names_missing_cells(self, tmp_path):
        sweep = fleet_sweep()
        submission = submit_sweep(sweep, tmp_path)
        run_worker(tmp_path, submission, max_cells=4)
        with pytest.raises(SweepError, match=r"2/6 cells"):
            collect(tmp_path, submission, timeout=0)
        assert not artifact_path(tmp_path, submission.key).exists()

    def test_collect_records_provenance(self, tmp_path):
        sweep = fleet_sweep()
        run_worker(tmp_path, sweep, host="prov-worker")
        result = collect(tmp_path, sweep, timeout=0, host="prov-reducer")
        assert result.hosts == ("prov-worker",) * sweep.num_cells
        assert result.reduced_by == "prov-reducer"
        assert len(result.elapsed) == sweep.num_cells
        # Provenance is excluded from the digest.
        on_disk = json.loads(artifact_path(tmp_path, result.key).read_text())
        assert on_disk["digest"] == result.digest
        assert on_disk["provenance"]["reduced_by"] == "prov-reducer"


def count_heartbeats(monkeypatch) -> list[str]:
    """Record the key of every ``ResultStore.heartbeat`` call."""
    calls: list[str] = []
    real = ResultStore.heartbeat

    def counting(self, key, owner):
        calls.append(key)
        return real(self, key, owner)

    monkeypatch.setattr(ResultStore, "heartbeat", counting)
    return calls


def slow_cells(monkeypatch, seconds: float, before=None) -> None:
    """Make every cell take *seconds* on the worker's monotonic clock;
    *before* (if given) runs with each task just before it executes."""
    clock = [0.0]
    monkeypatch.setattr(
        sweeps_api,
        "time",
        SimpleNamespace(
            monotonic=lambda: clock[0],
            perf_counter=time.perf_counter,
            sleep=time.sleep,
        ),
    )
    real_execute = sweeps_api.execute_cell

    def execute(task):
        if before is not None:
            before(task)
        clock[0] += seconds
        return real_execute(task)

    monkeypatch.setattr(sweeps_api, "execute_cell", execute)


class TestClaimHeartbeats:
    def test_fast_batch_makes_no_heartbeats(self, tmp_path, monkeypatch):
        calls = count_heartbeats(monkeypatch)
        sweep = fleet_sweep(replicas=8)
        report = run_worker(tmp_path, sweep)
        assert len(report.executed) == sweep.num_cells == 16
        assert calls == []

    def test_slow_cells_refresh_every_pending_claim(self, tmp_path, monkeypatch):
        ttl = 60.0
        calls = count_heartbeats(monkeypatch)
        slow_cells(monkeypatch, ttl / 4 + 1)
        submission = submit_sweep(fleet_sweep(replicas=8), tmp_path)
        keys = [task.key for task in submission.tasks()]
        report = run_worker(tmp_path, submission, ttl=ttl)
        assert len(report.executed) == 16
        # Cell 0 starts right after claiming; before cell k >= 1 more
        # than ttl/4 has passed, so cells k..15 are all refreshed.
        assert Counter(calls) == {keys[k]: k for k in range(1, 16)}

    def test_taken_over_cell_is_skipped_and_not_released(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        submission = submit_sweep(fleet_sweep(), tmp_path)
        keys = [task.key for task in submission.tasks()]
        stolen = {"owner": "bob", "pid": 0, "heartbeat": 0, "ttl": 300.0}

        def take_over_cell_1(task):
            if task.index == 0:  # bob takes cell 1 over while cell 0 runs
                store.claim_path(keys[1]).write_text(json.dumps(stolen))

        slow_cells(monkeypatch, 100.0, before=take_over_cell_1)
        report = run_worker(tmp_path, submission, host="alice", ttl=300.0)
        assert report.lost_claims == 1
        assert report.executed == (0, 2, 3, 4, 5)
        assert store.get(keys[1]) is None
        assert store.claim_info(keys[1])["owner"] == "bob"


class TestFailureIsolation:
    def test_failing_cells_reported_not_stored(self, tmp_path):
        sweep = fleet_sweep(measure="pytest-fleet-fail-at-d3")
        report = run_worker(tmp_path, sweep)
        assert len(report.failures) == 3  # the d=3 replicas
        assert not report.ok
        assert len(report.executed) == 3  # the healthy d=2 replicas
        assert len(ResultStore(tmp_path)) == 3  # failures don't poison
        # No claims linger on the failed cells.
        assert list(ResultStore(tmp_path).claims()) == []
        with pytest.raises(SweepError, match="cell 3"):
            report.raise_if_failed()

    def test_run_fleet_surfaces_worker_failures(self, tmp_path):
        sweep = fleet_sweep(measure="pytest-fleet-fail-at-d3")
        with pytest.raises(SweepError, match="exploded"):
            run_fleet(sweep, tmp_path, workers=2)

    def test_run_fleet_surfaces_a_dead_worker_process(self, tmp_path):
        # A worker killed outright breaks the pool; the fleet reports it
        # as a SweepError (the CLI's `error: ...`, exit 1), not a raw
        # BrokenProcessPool, and frees the claims its workers held.
        sweep = fleet_sweep(measure="pytest-fleet-kill-at-d3")
        with pytest.raises(SweepError, match="worker process died"):
            run_fleet(sweep, tmp_path, workers=2)
        assert list(ResultStore(tmp_path).claims()) == []


def _doomed_worker(store: str, key: str, ttl: float) -> None:
    run_worker(store, key, ttl=ttl)


class TestCrashRecovery:
    def test_killed_worker_leaves_store_consistent_and_takeoverable(
        self, tmp_path
    ):
        marker = tmp_path / "killed.marker"
        sweep = fleet_sweep(
            measure="pytest-fleet-kill-once",
            measure_params={"marker": str(marker)},
        )
        store_dir = tmp_path / "store"
        submission = submit_sweep(sweep, store_dir)

        ctx = multiprocessing.get_context("fork")
        doomed = ctx.Process(
            target=_doomed_worker,
            args=(str(store_dir), submission.key, 0.5),
        )
        doomed.start()
        doomed.join(timeout=60)
        assert doomed.exitcode == 1  # died mid-cell via os._exit
        assert marker.exists()

        # Consistency: every stored entry parses and serves; the killed
        # cell left no result, only (at most) a stale claim; no staging
        # temp files are visible to readers.
        store = ResultStore(store_dir)
        done_before = 0
        for task in submission.tasks():
            payload = store.get(task.key)
            if payload is not None:
                done_before += 1
                assert payload["value"]["d"] == 2
        assert done_before == 3  # cells 0..2 (d=2) committed before the kill
        status = sweep_status(store_dir, submission)
        assert status.done == 3 and not status.complete
        # The dead worker batch-claimed the whole grid up front (claims
        # release cell-by-cell as results commit), so the mid-cell kill
        # leaves the executing cell's claim plus the unexecuted rest of
        # the batch — all expiring after one TTL.
        assert len(list(store.claims())) == 3

        # Takeover: a healthy worker waits out the 0.5s TTL, claims the
        # dead worker's cell, and completes the grid.
        rescue = run_worker(
            store_dir, submission, host="rescuer", ttl=5.0, wait=30.0
        )
        assert rescue.ok
        assert len(rescue.executed) == 3  # the three d=3 cells
        final = sweep_status(store_dir, submission)
        assert final.complete
        result = collect(store_dir, submission, timeout=0)
        assert len(result.values) == sweep.num_cells
        assert list(store.claims()) == []  # takeover released the claim
