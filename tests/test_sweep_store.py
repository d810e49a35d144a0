"""Store-layer tests: portable canonical JSON, durable atomic writes,
and the multi-host claim protocol (O_EXCL acquisition, TTL takeover,
crash consistency)."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
import types

import pytest

from repro.scenario import ScenarioSpec
from repro.sweep import (
    ResultStore,
    SweepSpec,
    cell_key,
    decode_nonfinite,
    encode_nonfinite,
    measurement,
    run_sweep,
)
from repro.sweep.store import DEFAULT_CLAIM_TTL, atomic_write_text, canonical_json
from repro.util.rng import SeedLike

BASE = ScenarioSpec(churn="streaming", policy="none", n=40, d=2, horizon=10)


@measurement("pytest-nonfinite")
def nonfinite(spec: ScenarioSpec, seed: SeedLike) -> dict:
    return {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")}


class TestCanonicalJson:
    def test_rejects_nothing_emits_standard_json(self):
        # Regression: canonical_json used to allow_nan=True, emitting the
        # non-standard NaN/Infinity literals — unreadable by strict JSON
        # parsers on other hosts, and NaN broke fresh == cached equality.
        text = canonical_json({"x": float("nan"), "y": [float("inf"), float("-inf")]})
        assert text == '{"x":"NaN","y":["Infinity","-Infinity"]}'

        def reject(constant):  # a strict parser: any literal is fatal
            raise AssertionError(f"non-standard literal {constant!r}")

        assert json.loads(text, parse_constant=reject) == {
            "x": "NaN",
            "y": ["Infinity", "-Infinity"],
        }

    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    @pytest.mark.parametrize(
        "data",
        [
            {"spec": {"n": 300, "d": (4, 8)}, "seed": [1, (2, 3)], "x": 0.5},
            {"a": (float("nan"), [float("inf"), {"b": float("-inf")}])},
            types.MappingProxyType({"z": 1, "a": (1.5, "s")}),
            {"m": types.MappingProxyType({"k": [float("nan")]}), "t": ()},
            [None, True, -0.0, 1e300, "NaN"],
        ],
        ids=["finite", "nonfinite", "proxy", "proxy-nonfinite", "list"],
    )
    def test_same_text_as_the_walk(self, data):
        walked = json.dumps(
            encode_nonfinite(data),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        assert canonical_json(data) == walked

    def test_encode_decode_roundtrip(self):
        value = {
            "a": float("nan"),
            "b": [float("inf"), 1.5, {"c": float("-inf")}],
            "d": "plain",
        }
        encoded = encode_nonfinite(value)
        assert encoded["a"] == "NaN"
        assert encoded["b"][0] == "Infinity"
        decoded = decode_nonfinite(encoded)
        assert math.isnan(decoded["a"])
        assert decoded["b"][0] == float("inf")
        assert decoded["b"][2]["c"] == float("-inf")
        assert decoded["d"] == "plain"

    def test_cell_key_stable_under_nonfinite_params(self):
        args = dict(
            scenario=BASE.to_dict(),
            measure="m",
            measure_params={"threshold": float("inf")},
            seed=0,
            stream="s",
            index=0,
            backend="dict",
        )
        assert cell_key(**args) == cell_key(**args)

    def test_nonfinite_measurement_cached_equals_fresh(self, tmp_path):
        # NaN != NaN, so this equality only holds because values are
        # sentinel-encoded before normalization and storage.
        sweep = SweepSpec(
            base=BASE,
            replicas=2,
            seed=3,
            stream="nonfinite",
            measure="pytest-nonfinite",
        )
        cold = run_sweep(sweep, store=tmp_path)
        warm = run_sweep(sweep, store=tmp_path)
        assert warm.executed == 0
        assert cold.values() == warm.values()
        assert cold.values()[0]["nan"] == "NaN"


class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "deep" / "file.json"
        atomic_write_text(path, "payload\n")
        assert path.read_text() == "payload\n"
        assert [p.name for p in path.parent.iterdir()] == ["file.json"]

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_put_durable_and_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        store.put(key, {"v": 1}, 0.5, host="me")
        payload = store.get(key)
        assert payload["value"] == {"v": 1}
        assert payload["host"] == "me"
        # No staging files left behind in the fan-out directory.
        assert list(tmp_path.glob("??/.*.tmp")) == []

    def test_sweep_orphans_removes_only_stale_temps(self, tmp_path):
        store = ResultStore(tmp_path)
        fan = tmp_path / "ab"
        fan.mkdir()
        stale = fan / ".dead1234-xyz.tmp"
        fresh = fan / ".live5678-xyz.tmp"
        stale.write_text("{")
        fresh.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert store.sweep_orphans(max_age=3600) == 1
        assert not stale.exists()
        assert fresh.exists()  # a write possibly in flight survives


def _race_claim(root, key, owner, barrier, queue):
    store = ResultStore(root)
    barrier.wait()
    queue.put((owner, store.claim(key, owner=owner)))


class TestClaims:
    KEY = "cd" + "1" * 62

    def test_claim_lifecycle(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim_info(self.KEY) is None
        assert store.claim(self.KEY, owner="alice")
        info = store.claim_info(self.KEY)
        assert info["owner"] == "alice"
        assert info["heartbeat"] == 0
        assert not info["expired"]
        assert list(store.claims()) == [self.KEY]
        # A live claim blocks other owners.
        assert not store.claim(self.KEY, owner="bob")
        # Heartbeats bump the counter and refresh the mtime.
        assert store.heartbeat(self.KEY, "alice")
        assert store.claim_info(self.KEY)["heartbeat"] == 1
        # Only the owner can heartbeat.
        assert not store.heartbeat(self.KEY, "bob")
        store.release(self.KEY, "alice")
        assert store.claim_info(self.KEY) is None
        store.release(self.KEY, "alice")  # idempotent

    def test_expired_claim_taken_over(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="alice", ttl=0.05)
        time.sleep(0.1)
        assert store.claim_info(self.KEY)["expired"]
        # Bob takes the stale claim over; Alice's heartbeat now fails.
        assert store.claim(self.KEY, owner="bob", ttl=10.0)
        assert store.claim_info(self.KEY)["owner"] == "bob"
        assert not store.heartbeat(self.KEY, "alice")

    def test_release_leaves_a_taken_over_claim(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="alice", ttl=0.05)
        time.sleep(0.1)
        assert store.claim(self.KEY, owner="bob", ttl=10.0)
        # Alice finishes late: releasing must not free Bob's cell.
        store.release(self.KEY, "alice")
        assert store.claim_info(self.KEY)["owner"] == "bob"
        assert not store.claim(self.KEY, owner="carol")
        store.release(self.KEY, "bob")
        assert store.claim_info(self.KEY) is None

    def test_heartbeat_keeps_claim_alive(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="alice", ttl=0.3)
        for _ in range(3):
            time.sleep(0.15)
            assert store.heartbeat(self.KEY, "alice")
        # 0.45s elapsed > ttl, but the claim was refreshed throughout.
        assert not store.claim_info(self.KEY)["expired"]
        assert not store.claim(self.KEY, owner="bob")

    def test_heartbeat_skips_fsync_put_keeps_it(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="alice")
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        assert store.heartbeat(self.KEY, "alice")
        assert calls == []
        assert store.claim_info(self.KEY)["heartbeat"] == 1
        # Still staged atomically: no temp file left beside the claim.
        assert list(tmp_path.glob("??/.*.tmp")) == []
        store.put(self.KEY, {"v": 1}, 0.1)
        assert len(calls) >= 1

    def test_unreadable_claim_counts_with_default_ttl(self, tmp_path):
        # A claimer that crashed mid-create leaves garbage: it must still
        # block (it may be alive), expiring on the default TTL.
        store = ResultStore(tmp_path)
        path = store.claim_path(self.KEY)
        path.parent.mkdir(parents=True)
        path.write_text("{truncated")
        info = store.claim_info(self.KEY)
        assert info["owner"] is None
        assert info["ttl"] == DEFAULT_CLAIM_TTL
        assert not info["expired"]
        assert not store.claim(self.KEY, owner="bob")

    def test_two_processes_race_one_wins(self, tmp_path):
        # The acceptance race: two real processes contend the same cell
        # through O_EXCL; exactly one acquisition may succeed.
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_claim,
                args=(str(tmp_path), self.KEY, owner, barrier, queue),
            )
            for owner in ("p1", "p2")
        ]
        for proc in procs:
            proc.start()
        outcomes = dict(queue.get(timeout=10) for _ in procs)
        for proc in procs:
            proc.join(timeout=10)
        assert sorted(outcomes.values()) == [False, True]
        winner = next(o for o, won in outcomes.items() if won)
        store = ResultStore(tmp_path)
        assert store.claim_info(self.KEY)["owner"] == winner

    def test_result_commit_is_last_writer_wins(self, tmp_path):
        # Two workers that both executed an (expired-claim) cell commit
        # identical deterministic payloads; put never errors, the second
        # write simply replaces the first.
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"v": 1}, 0.1, host="a")
        store.put(self.KEY, {"v": 1}, 0.2, host="b")
        payload = store.get(self.KEY)
        assert payload["value"] == {"v": 1}
        assert payload["host"] == "b"
