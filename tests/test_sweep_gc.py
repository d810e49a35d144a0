"""Worker claim batching and store garbage collection.

Claim batching (``run_worker(..., claim_batch=K)``) amortizes one store
scan over up to K claimed cells; the claim/heartbeat/TTL protocol is
unchanged, so every fleet acceptance property (byte-identical artifacts,
takeover of expired claims) holds — these tests cover the batching knob
itself and the ``gc_store`` census that prunes cells no submitted
``sweeps/*.spec.json`` can reach.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    DEFAULT_CLAIM_BATCH,
    gc_store,
    run_fleet,
    run_worker,
    submit_sweep,
)
from repro.cli.sweep import main as sweep_main
from repro.errors import SweepError
from repro.scenario import ScenarioSpec
from repro.sweep import ResultStore, SweepSpec, measurement, run_sweep
from repro.util.rng import SeedLike, make_rng

BASE = ScenarioSpec(churn="streaming", policy="none", n=30, d=2, horizon=5)


@measurement("pytest-gc-echo")
def gc_echo(spec: ScenarioSpec, seed: SeedLike) -> dict:
    return {"draw": float(make_rng(seed).random()), "d": spec.d}


def make_sweep(stream: str, **changes) -> SweepSpec:
    defaults = dict(
        base=BASE,
        axes=[("d", (2, 3))],
        replicas=2,
        seed=0,
        stream=stream,
        measure="pytest-gc-echo",
    )
    defaults.update(changes)
    return SweepSpec(**defaults)


class TestClaimBatching:
    def test_default_batch_size(self):
        assert DEFAULT_CLAIM_BATCH == 16

    @pytest.mark.parametrize("claim_batch", [1, 2, 16])
    def test_worker_drains_grid_at_any_batch_size(
        self, tmp_path, claim_batch
    ):
        sweep = make_sweep(f"gc-batch-{claim_batch}")
        submission = submit_sweep(sweep, tmp_path)
        report = run_worker(
            tmp_path, submission.key, claim_batch=claim_batch
        )
        assert len(report.executed) == 4
        assert not report.failures

    def test_batched_fleet_reduces_like_sequential(self, tmp_path):
        sweep = make_sweep("gc-fleet")
        sequential = run_fleet(
            sweep, tmp_path / "s1", workers=1, claim_batch=1
        )
        batched = run_fleet(sweep, tmp_path / "s2", workers=2, claim_batch=2)
        assert sequential.core_bytes() == batched.core_bytes()
        assert sequential.digest == batched.digest

    def test_max_cells_caps_the_batch(self, tmp_path):
        sweep = make_sweep("gc-maxcells")
        submission = submit_sweep(sweep, tmp_path)
        first = run_worker(
            tmp_path, submission.key, max_cells=3, claim_batch=16
        )
        assert len(first.executed) == 3
        rest = run_worker(tmp_path, submission.key, claim_batch=16)
        assert len(rest.executed) == 1

    def test_invalid_batch_size_rejected(self, tmp_path):
        sweep = make_sweep("gc-invalid")
        submission = submit_sweep(sweep, tmp_path)
        with pytest.raises(SweepError):
            run_worker(tmp_path, submission.key, claim_batch=0)


class TestGcStore:
    def _populated_store(self, tmp_path):
        store = tmp_path / "store"
        keep = make_sweep("gc-keep")
        drop = make_sweep("gc-drop", axes=[("d", (2, 3, 4))], replicas=1)
        run_fleet(keep, store, workers=1)
        dropped = submit_sweep(drop, store)
        run_worker(store, dropped.key)
        return store, dropped

    def test_clean_store_has_nothing_unreachable(self, tmp_path):
        store, _ = self._populated_store(tmp_path)
        summary = gc_store(store)
        assert summary["unreachable_cells"] == 0
        assert summary["stored_cells"] == 7
        assert summary["sweeps"] == 2
        assert summary["deleted"] is False

    def test_dry_run_reports_without_deleting(self, tmp_path):
        store, dropped = self._populated_store(tmp_path)
        spec_doc = next(
            p
            for p in (store / "sweeps").glob("*.spec.json")
            if dropped.key in p.name
        )
        spec_doc.unlink()
        summary = gc_store(store)
        assert summary["unreachable_cells"] == 3
        assert summary["reclaimed_bytes"] > 0
        assert summary["deleted"] is False
        assert len(list(ResultStore(store).keys())) == 7

    def test_yes_deletes_only_unreachable(self, tmp_path):
        store, dropped = self._populated_store(tmp_path)
        next(
            p
            for p in (store / "sweeps").glob("*.spec.json")
            if dropped.key in p.name
        ).unlink()
        summary = gc_store(store, yes=True)
        assert summary["deleted"] is True
        assert summary["unreachable_cells"] == 3
        remaining = list(ResultStore(store).keys())
        assert len(remaining) == 4
        # idempotent: a second pass finds nothing
        again = gc_store(store, yes=True)
        assert again["unreachable_cells"] == 0
        assert len(list(ResultStore(store).keys())) == 4

    def test_deleted_cells_are_re_executable(self, tmp_path):
        store, dropped = self._populated_store(tmp_path)
        next(
            p
            for p in (store / "sweeps").glob("*.spec.json")
            if dropped.key in p.name
        ).unlink()
        gc_store(store, yes=True)
        # resubmitting brings the cells back through normal execution
        resubmitted = submit_sweep(dropped.sweep, store)
        report = run_worker(store, resubmitted.key)
        assert len(report.executed) == 3

    def test_run_sweep_store_is_reachable(self, tmp_path):
        # Experiments and --sweep fill a store through run_sweep; that
        # submits the sweep, so gc keeps every cell it wrote.
        store = tmp_path / "store"
        result = run_sweep(make_sweep("gc-run-sweep"), jobs=2, store=store)
        summary = gc_store(store, yes=True)
        assert summary["sweeps"] == 1
        assert summary["stored_cells"] == len(result.cells)
        assert summary["unreachable_cells"] == 0

    def test_empty_store(self, tmp_path):
        summary = gc_store(tmp_path / "empty")
        assert summary["stored_cells"] == 0
        assert summary["unreachable_cells"] == 0

    def test_corrupt_spec_doc_aborts_without_deleting(self, tmp_path):
        store, dropped = self._populated_store(tmp_path)
        doc = next(iter((store / "sweeps").glob("*.spec.json")))
        doc.write_text("{ not json", encoding="utf-8")
        with pytest.raises(SweepError):
            gc_store(store, yes=True)
        assert len(list(ResultStore(store).keys())) == 7


class TestCli:
    def test_gc_dry_run_prints_json(self, tmp_path, capsys):
        store = tmp_path / "store"
        run_fleet(make_sweep("gc-cli"), store, workers=1)
        rc = sweep_main(["gc", "--store", str(store)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["deleted"] is False
        assert summary["stored_cells"] == 4

    def test_claim_batch_flag_parses(self, tmp_path, capsys):
        store = tmp_path / "store"
        sweep = make_sweep("gc-cli-batch")
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(sweep.to_json(), encoding="utf-8")
        rc = sweep_main(
            [
                "run",
                str(spec_file),
                "--store",
                str(store),
                "--claim-batch",
                "2",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cells"] == 4
