"""Golden digests of seeded fused streaming windows.

``tests/test_fused_windows.py`` checks the streaming fused kernel
against the per-event hook loop, and ``tests/test_fused_rounds.py`` the
threshold fuse against the dict oracle.  These digests pin the array
backend's own bookkeeping after a window too: each one hashes the backend
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
        "2636461795a37030a1f6daa2b2e0536f"
        "bf6551ba7993fd177b3aa839c2f19a79"
    ),
    ('SDG', 7, 2, 40): (
        "1edc63b70345ef77244154ab92831928"
        "8c49b9961a4ea804af2b4b82118ef139"
    ),
    ('SDG', 50, 3, 120): (
        "270ac964840ccd303a8c192dd5d57c0c"
        "2ac66311949ba767f86b4b7c074d8923"
    ),
    ('SDG', 2000, 8, 100): (
        "453efd2358bc689ad3056f89cedcbd4a"
        "161b1128602197f0c04d813256551845"
    ),
    ('SDGR', 3, 1, 25): (
        "5345f5fde04677834257e73a84ed9f3f"
        "0dea8e43f202e60c12bec8e059ae630d"
    ),
    ('SDGR', 7, 2, 40): (
        "fabd95805ec885e03a4c5e5affe39ec6"
        "10d154c526a12c5dd67acd1ac109a2c5"
    ),
    ('SDGR', 50, 3, 120): (
        "137f08c984cc84c2ab4dd33cab76bf91"
        "11a23e3585355125d1737a12ee90ffe7"
    ),
    ('SDGR', 2000, 8, 100): (
        "3175906845499a9525876e9e26273b67"
        "6583614310f654e0a8836d3cf17eb3c1"
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
