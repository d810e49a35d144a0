"""How a checkpoint is encoded and written.

A checkpoint payload is encoded once (:func:`build_payload`), turned
into canonical JSON text once, hashed, and written inside a compact,
sorted-key envelope.  These tests pin that layout, that files in the
earlier spaced layout still load, and that an observer whose state does
not encode is named in the error.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.scenario import ScenarioSpec, Simulation
from repro.scenario.observers import Observer
from repro.service import checkpoint as checkpoint_io
from repro.service.checkpoint import build_payload, decode_value, encode_value


def session() -> Simulation:
    spec = ScenarioSpec(churn="streaming", policy="regen", n=40, d=3, horizon=12, seed=13)
    sim = Simulation(spec, observers=("size", {"name": "degrees", "params": {"every": 4}}))
    sim._run_windows(6)
    return sim


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_file_is_the_compact_envelope_around_the_hashed_text(tmp_path):
    sim = session()
    text = canonical(build_payload(sim))
    path = sim.save_checkpoint(tmp_path / "ck.json")
    envelope = {
        "format": checkpoint_io.FORMAT,
        "version": checkpoint_io.VERSION,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "payload": json.loads(text),
    }
    assert path.read_text(encoding="utf-8") == canonical(envelope)


def test_spaced_layout_still_loads(tmp_path):
    """Files written with ``json.dumps(envelope, sort_keys=True)`` (the
    default ", " and ": " separators) load and restore the same run."""
    sim = session()
    path = sim.save_checkpoint(tmp_path / "ck.json")
    envelope = json.loads(path.read_text(encoding="utf-8"))
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps(envelope, sort_keys=True), encoding="utf-8")
    assert spaced.read_text(encoding="utf-8") != path.read_text(encoding="utf-8")
    loaded = checkpoint_io.load_checkpoint(spaced)
    assert canonical(encode_value(loaded.payload)) == canonical(envelope["payload"])
    resumed = Simulation.restore(spaced).run()
    assert resumed.results() == Simulation.restore(path).run().results()


def test_compact_file_is_checked_on_its_own_text(tmp_path, monkeypatch):
    """The hash covers the payload text as written, so a compact file
    loads without re-serialising what was parsed."""
    sim = session()
    path = sim.save_checkpoint(tmp_path / "ck.json")

    def refuse(payload):
        raise AssertionError("the compact file was re-serialised")

    monkeypatch.setattr(checkpoint_io, "_canonical_text", refuse)
    loaded = checkpoint_io.load_checkpoint(path)
    assert loaded.rounds_completed == 6


def test_flipped_byte_in_compact_payload_is_rejected(tmp_path):
    sim = session()
    path = sim.save_checkpoint(tmp_path / "ck.json")
    text = path.read_text(encoding="utf-8")
    assert text.count('"rounds_completed":6') == 1
    path.write_text(
        text.replace('"rounds_completed":6', '"rounds_completed":7'),
        encoding="utf-8",
    )
    with pytest.raises(CheckpointError, match="content-hash"):
        checkpoint_io.load_checkpoint(path)


def test_decode_passes_lists_of_plain_scalars_through():
    items = [1, 2.5, "x", True, None]
    assert decode_value(items) is items
    nested = decode_value([[1, 2], {"a": [3]}])
    assert nested == [[1, 2], {"a": [3]}]


def test_build_payload_is_already_encoded():
    payload = build_payload(session())
    assert encode_value(payload) == payload
    assert payload["backend"]["slots"]["__ndarray__"] is True


def test_lists_of_plain_scalars_are_copied_in_one_step():
    items = [1, 2.5, "x", True, None]
    encoded = encode_value(items)
    assert encoded == items and encoded is not items
    assert encode_value((1, 2)) == [1, 2]
    mixed = encode_value([np.int64(3), np.float64(0.5), np.bool_(True), [np.int32(1)]])
    assert mixed == [3, 0.5, True, [1]]
    assert [type(item) for item in mixed[:3]] == [int, float, bool]


@pytest.mark.parametrize("leaf", [object(), {1, 2}, b"raw", [1, object()]])
def test_values_json_cannot_write_raise(leaf):
    with pytest.raises(CheckpointError, match="not JSON-serializable"):
        encode_value({"deep": [leaf]})


def test_observer_with_state_that_does_not_encode_is_named(tmp_path):
    class Holder(Observer):
        name = "handle_holder"

        def __init__(self):
            super().__init__(every=2)
            self.handle = object()

    spec = ScenarioSpec(churn="streaming", policy="regen", n=30, d=3, horizon=4, seed=1)
    sim = Simulation(spec, observers=[Holder()])
    with pytest.raises(CheckpointError, match="observer 'handle_holder'"):
        sim.save_checkpoint(tmp_path / "ck.json")
    assert not list(tmp_path.iterdir())
