"""Golden digests of seeded fused streaming windows.

``tests/test_fused_rounds.py`` checks the fused kernel against the dict
oracle, which pins the topology but not the array backend's own
bookkeeping.  These digests pin that too: each one hashes the backend
state after a seeded fused window (slot matrix, ``id_of``, birth times,
alive order, free list, ``mutation_epoch``) and the driver's RNG state,
then the event records of one per-event round run right after the
window (``edges_destroyed`` follows the reverse index's set order), the
iteration order of the reverse-index set of every used row, and the
state once more.  A digest changes exactly when the fused trajectory or
the reverse index's insertion order does.

Shapes cover a window shorter than ``n`` (2000, 8, 100), a window longer
than ``n`` so newborns die inside it (50, 3, 120), and the smallest
networks (7, 2, 40) and (3, 1, 25), on both streaming models; the
threshold model runs its fused pure-birth prefixes at two sizes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.models.streaming import SDG, SDGR
from repro.models.threshold import TSDG

#: The threshold model runs at ``threshold = d`` so that a node departs
#: within a few per-event rounds of the window.
MODELS = {
    "SDG": SDG,
    "SDGR": SDGR,
    "TSDG": lambda n, d, seed: TSDG(n, d, threshold=d, seed=seed),
}

#: (model, n, d, W) -> sha256 of the window transcript.
GOLDEN = {
    ('SDG', 3, 1, 25): (
        "23b45c71301c466c1fc0cf1b94665e75"
        "311eb640282680cdd18e186b1c6b9249"
    ),
    ('SDG', 7, 2, 40): (
        "4015f4681e3376369a24bf430ebc2080"
        "135ed8789a926daf4d79178f76a7d0b3"
    ),
    ('SDG', 50, 3, 120): (
        "ec23d4695193e3a3d63c08ee6b00c9df"
        "8412bb5353cbe03322e78b9e048d569f"
    ),
    ('SDG', 2000, 8, 100): (
        "66abdb0c5729be4b22c73d470bc9518d"
        "11d348ef96284c9a1f39185b193e690e"
    ),
    ('SDGR', 3, 1, 25): (
        "815dd50ec500ef896581f2ad5a2275f7"
        "cfcf39038073d149851f01868051155d"
    ),
    ('SDGR', 7, 2, 40): (
        "e6b0a46e4f82c628916f36fff5192d93"
        "9625a00ccde8d940e2c19ac7c3389212"
    ),
    ('SDGR', 50, 3, 120): (
        "58bee0e90079ba9b6c914fcd00f8ba4c"
        "131191e5976a9fb3ae5e884fcd25264a"
    ),
    ('SDGR', 2000, 8, 100): (
        "0939f4c46e21c17e524180606edd7b99"
        "30e13e151b48a76b991e750fd8d68e60"
    ),
    ('TSDG', 40, 4, 60): (
        "46e636713c8a32ca92cfdf3cb38769c0"
        "3a30d755fd726f2e0133017a0d7d2365"
    ),
    ('TSDG', 300, 6, 200): (
        "a442d93debfa3691c8151a0070464ca6"
        "9fbe674cb282d22429b3fc52cc2f8ad9"
    ),
}


def _state(net) -> dict:
    state = net.state
    dump = state.dump_state()
    return {
        "arrays": {
            key: hashlib.sha256(np.ascontiguousarray(dump[key]).tobytes()).hexdigest()
            for key in ("slots", "num_slots", "birth", "id_of", "alive_rows")
        },
        "alive": dump["alive"],
        "free": dump["free"],
        "high": dump["high"],
        "next_id": dump["next_id"],
        "epoch": dump["mutation_epoch"],
        "rng": repr(net.rng.bit_generator.state),
    }


def window_transcript(model: str, n: int, d: int, rounds: int) -> dict:
    net = MODELS[model](n, d, seed=2021)
    net.advance_to_time_batched(net.now + rounds)
    after_window = _state(net)
    # Per-event rounds up to and including the first one with a death
    # (the streaming models die every round; the threshold model may
    # need a few rounds before a node departs).
    records = []
    for _ in range(200):
        events = net.advance_round().events
        records.append(
            [
                [
                    type(event.kind).__name__,
                    list(event.node_ids),
                    [[e.source, e.target] for e in event.edges_created],
                    [[e.source, e.target] for e in event.edges_destroyed],
                ]
                for event in events
            ]
        )
        if any(type(event.kind).__name__ == "NodeDied" for event in events):
            break
    state = net.state
    in_refs = [
        [list(pair) for pair in state._in_refs[row]]
        for row in range(state.dump_state()["high"])
    ]
    state.check_invariants()
    return {
        "window": after_window,
        "records": records,
        "in_refs": in_refs,
        "after": _state(net),
    }


def digest(transcript: dict) -> str:
    blob = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("model,n,d,rounds", sorted(GOLDEN))
def test_fused_window_matches_golden_digest(model, n, d, rounds):
    assert digest(window_transcript(model, n, d, rounds)) == GOLDEN[
        (model, n, d, rounds)
    ]
