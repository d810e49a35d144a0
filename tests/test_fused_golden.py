"""Golden digests of seeded fused streaming windows.

``tests/test_fused_windows.py`` checks the streaming fused kernel
against the per-event hook loop, and ``tests/test_fused_rounds.py`` the
threshold fuse against the dict oracle.  These digests pin the array
backend's own bookkeeping after a window too: each one hashes the backend
state after a seeded fused window (slot matrix, ``id_of``, birth times,
alive order, free list, ``mutation_epoch``) and the driver's RNG state,
then the event records of one per-event round run right after the
window, the reverse-index set of every used row (sorted), and the state
once more.  A digest changes exactly when the fused trajectory does.

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
        "59225d453bc32f9857dcdace502599db"
        "085109535c095c0f4fd30975b9a88700"
    ),
    ('SDG', 7, 2, 40): (
        "a2e1fb9b2b21228654c8374932921535"
        "577ea49574774187d39f7071dc72ee8e"
    ),
    ('SDG', 50, 3, 120): (
        "5bdb41f52220a37184be0c5f9cd8a016"
        "b5a0265bd65c79403fa74adc8e50b79c"
    ),
    ('SDG', 2000, 8, 100): (
        "eea43c4fc365de20eb06e3d89b14156e"
        "f0caa75e9d5b8abba7291341076edebd"
    ),
    ('SDGR', 3, 1, 25): (
        "4316efff28b1c443b7483d1a66f0b056"
        "5f90758562fe4abb5288cc782f5a178b"
    ),
    ('SDGR', 7, 2, 40): (
        "0ca6db8d3cf25552077b620feb6ce852"
        "743d129472a290d57917a9fc5dfa14bc"
    ),
    ('SDGR', 50, 3, 120): (
        "97928ed8aa7a9f58a74be23ae7cdde9b"
        "76450a4ebd2d2c162cf2062dc02bc823"
    ),
    ('SDGR', 2000, 8, 100): (
        "8d034694e4548270ac73928059bb4fa1"
        "0bb3b24ae411cdccc340eec588dacd94"
    ),
    ('TSDG', 40, 4, 60): (
        "51da35d65942925115e588891943daf6"
        "fe34c3eb2fd25f577ce6b80e590eaa60"
    ),
    ('TSDG', 300, 6, 200): (
        "349ac16614e764b614c50f1bbf252530"
        "c55c441350be2f5df51f37cee2506d44"
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
    index = state._ensure_in_refs()
    in_refs = [
        [list(pair) for pair in sorted(index[row])]
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
