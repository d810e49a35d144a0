"""Golden digests of whole flooding runs.

Each case builds a warm network, runs one spreading process on it and
hashes the full :class:`~repro.flooding.result.FloodingResult` (source,
start time, both size series, the completion and extinction fields and
``max_informed``) together with the network's clock, population and RNG
state afterwards.  The grid covers the four round processes and
asynchronous flooding on SDG/SDGR/PDG/PDGR, on the dict oracle
(``tests/oracles/dict_backend.py``, discrete flooding through the set
frontier) and the array backend (the mask frontier), mask gossip/lossy,
multi-source seeding, ``sources=`` all alive nodes, runs that keep going
after extinction, round caps and one-node networks.

The digests were computed with the per-process round loops each
function carried before they shared one round engine, so they pin the
engine to them: same sizes, verdicts, rounds and RNG streams.  The
set-frontier lossy cases and the oracle's gossip cases were pinned
again when every exposed neighbour order became ascending id; since
then each dict case's digest equals its array twin's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.flooding import (
    flood_asynchronous,
    flood_discrete,
    flood_discretized,
    flood_lossy,
    gossip_push_pull,
)
from repro.models import PDG, PDGR, SDG, SDGR
from tests.oracles.dict_backend import BACKENDS, flood_discrete_reference

MODELS = {"SDG": SDG, "SDGR": SDGR, "PDG": PDG, "PDGR": PDGR}
PROCESSES = {
    "asynchronous": flood_asynchronous,
    "discrete": flood_discrete,
    "discretized": flood_discretized,
    "gossip": gossip_push_pull,
    "lossy": flood_lossy,
}
#: Processes whose library path needs the array backend, and the
#: reference path the same case takes on the dict oracle.
ORACLE_PROCESSES = {**PROCESSES, "discrete": flood_discrete_reference}
SEED = 2026


def _cases() -> dict[str, tuple]:
    """label -> (model, backend, n, d, process, seeding, params)."""
    cases: dict[str, tuple] = {}

    def add(model, backend, n, d, process, seeding="youngest", label="", **params):
        name = f"{model}-{backend}-{process}" + (f"-{label}" if label else "")
        cases[name] = (model, backend, n, d, process, seeding, params)

    for model in MODELS:
        poisson = model.startswith("P")
        for backend in ("dict", "array"):
            dense = (model, backend, 80, 4)
            for process in ("discrete", "discretized"):
                add(*dense, process)
                add(*dense, process, "spread", label="multi")
                add(*dense, process, "all", label="all")
                add(*dense, process, label="cap", max_rounds=2)
                add(model, backend, 20, 1, process, "oldest", label="nostop",
                    max_rounds=30, stop_when_extinct=False)
            add(*dense, "gossip", seed=3)
            add(*dense, "gossip", label="push", seed=3, pull=False)
            add(*dense, "gossip", label="pull", seed=3, push=False)
            add(*dense, "gossip", label="cap", seed=3, max_rounds=3)
            add(*dense, "lossy", loss=0.3, seed=3)
            add(*dense, "lossy", label="cap", loss=0.3, seed=3, max_rounds=2)
            if backend == "array":
                add(*dense, "gossip", label="mask", seed=3, vectorized=True)
                add(*dense, "lossy", label="mask", loss=0.3, seed=3,
                    vectorized=True)
            if poisson:
                add(*dense, "asynchronous")
                add(*dense, "asynchronous", label="cap", max_time=2.0)
    for backend in ("dict", "array"):
        for process in ("discrete", "discretized", "gossip", "lossy"):
            params = {"seed": 3} if process in ("gossip", "lossy") else {}
            if process == "lossy":
                params["loss"] = 0.3
            add("one-node", backend, 5, 2, process, **params)
    return cases


CASES = _cases()


def build_network(model: str, backend: str, n: int, d: int):
    state = BACKENDS[backend]()
    if model == "one-node":
        # Round 1 of a cold streaming session: node 0 is the only alive node.
        network = SDGR(n=n, d=d, seed=SEED, warm=False, backend=state)
        network.run_rounds(1)
        return network
    return MODELS[model](n=n, d=d, seed=SEED, backend=state)


def run_case(label: str):
    model, backend, n, d, process, seeding, params = CASES[label]
    network = build_network(model, backend, n, d)
    alive = sorted(network.state.alive_ids())
    if seeding == "oldest":
        params = {**params, "source": alive[0]}
    elif seeding == "spread":
        params = {**params, "sources": alive[::25]}
    elif seeding == "all":
        params = {**params, "sources": alive}
    processes = ORACLE_PROCESSES if backend == "dict" else PROCESSES
    return network, processes[process](network, **params)


def digest(network, result) -> str:
    transcript = {
        "result": dataclasses.asdict(result),
        "now": network.now,
        "alive": network.num_alive(),
        "rng": network.rng.bit_generator.state,
    }
    blob = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


#: label -> the first 32 hex digits of the run's sha256.
GOLDEN = {
    "PDG-array-asynchronous": "c1d8f17e23c8c5a493fb23684070e20a",
    "PDG-array-asynchronous-cap": "1a907e03a806d2280bf4d78cd2c30176",
    "PDG-array-discrete": "be9ba5a58efe734ef31fc8e45308e078",
    "PDG-array-discrete-all": "fc3538c9ec09a417fa3a46e5c41dd34c",
    "PDG-array-discrete-cap": "05e7a1e617879fdf4457f325c6c89e0d",
    "PDG-array-discrete-multi": "9b3a3abf67eee8e571ed2a6c77608a15",
    "PDG-array-discrete-nostop": "6827a319251ced7125a1c343d91b56de",
    "PDG-array-discretized": "be9ba5a58efe734ef31fc8e45308e078",
    "PDG-array-discretized-all": "fc3538c9ec09a417fa3a46e5c41dd34c",
    "PDG-array-discretized-cap": "05e7a1e617879fdf4457f325c6c89e0d",
    "PDG-array-discretized-multi": "9b3a3abf67eee8e571ed2a6c77608a15",
    "PDG-array-discretized-nostop": "6827a319251ced7125a1c343d91b56de",
    "PDG-array-gossip": "61c93b70de9d78669500429e887a2f9a",
    "PDG-array-gossip-cap": "34b6c08d18c72bdc1db1c4f78a25b2eb",
    "PDG-array-gossip-mask": "fde00fe77fa6ce09d6ab199ab3df4afb",
    "PDG-array-gossip-pull": "4a20fb31db5d25f33cded992121dbe46",
    "PDG-array-gossip-push": "b247bdc5d357c33d3291b802ab81408c",
    "PDG-array-lossy": "ce0cd0cc945b62f618e3b1242d21622f",
    "PDG-array-lossy-cap": "a08faf00fd7f132d0ea70b70065b4527",
    "PDG-array-lossy-mask": "bb23d9f48c88f258ffa59751f572ba55",
    "PDG-dict-asynchronous": "c1d8f17e23c8c5a493fb23684070e20a",
    "PDG-dict-asynchronous-cap": "1a907e03a806d2280bf4d78cd2c30176",
    "PDG-dict-discrete": "be9ba5a58efe734ef31fc8e45308e078",
    "PDG-dict-discrete-all": "fc3538c9ec09a417fa3a46e5c41dd34c",
    "PDG-dict-discrete-cap": "05e7a1e617879fdf4457f325c6c89e0d",
    "PDG-dict-discrete-multi": "9b3a3abf67eee8e571ed2a6c77608a15",
    "PDG-dict-discrete-nostop": "6827a319251ced7125a1c343d91b56de",
    "PDG-dict-discretized": "be9ba5a58efe734ef31fc8e45308e078",
    "PDG-dict-discretized-all": "fc3538c9ec09a417fa3a46e5c41dd34c",
    "PDG-dict-discretized-cap": "05e7a1e617879fdf4457f325c6c89e0d",
    "PDG-dict-discretized-multi": "9b3a3abf67eee8e571ed2a6c77608a15",
    "PDG-dict-discretized-nostop": "6827a319251ced7125a1c343d91b56de",
    "PDG-dict-gossip": "61c93b70de9d78669500429e887a2f9a",
    "PDG-dict-gossip-cap": "34b6c08d18c72bdc1db1c4f78a25b2eb",
    "PDG-dict-gossip-pull": "4a20fb31db5d25f33cded992121dbe46",
    "PDG-dict-gossip-push": "b247bdc5d357c33d3291b802ab81408c",
    "PDG-dict-lossy": "ce0cd0cc945b62f618e3b1242d21622f",
    "PDG-dict-lossy-cap": "a08faf00fd7f132d0ea70b70065b4527",
    "PDGR-array-asynchronous": "445fc922cf681afb66f6ef3f89333c1a",
    "PDGR-array-asynchronous-cap": "e98c52c2c81452b901c7d101ae2c20d2",
    "PDGR-array-discrete": "7296d1d81a0566c87eeba86c31a61a8f",
    "PDGR-array-discrete-all": "c50de3693f49f9f0a6676bd479da09b6",
    "PDGR-array-discrete-cap": "62bae53764f4a8f81f1d1a0e6bab6d3a",
    "PDGR-array-discrete-multi": "6b3cd5cb0fe63d59ba92723e5d7e479e",
    "PDGR-array-discrete-nostop": "a45a71671fad28621fe8b6127a36e0a5",
    "PDGR-array-discretized": "7296d1d81a0566c87eeba86c31a61a8f",
    "PDGR-array-discretized-all": "c50de3693f49f9f0a6676bd479da09b6",
    "PDGR-array-discretized-cap": "62bae53764f4a8f81f1d1a0e6bab6d3a",
    "PDGR-array-discretized-multi": "6b3cd5cb0fe63d59ba92723e5d7e479e",
    "PDGR-array-discretized-nostop": "3ec6473ccd5123857419995e643ec60f",
    "PDGR-array-gossip": "5c8d7fcdb2d24259819b9222aee790ef",
    "PDGR-array-gossip-cap": "c5bec3842ce53b5a1bd57fad0a44bfac",
    "PDGR-array-gossip-mask": "03f6d32c785b2d654241ca8a2f04ec5a",
    "PDGR-array-gossip-pull": "71f2d754189746ec99c1f811fdc2ca78",
    "PDGR-array-gossip-push": "f42c4b39e4c890864cd2708dca316206",
    "PDGR-array-lossy": "8efda157743584ef67109fc932c2d979",
    "PDGR-array-lossy-cap": "f12e5dcb25c3e800919b9ed3b7d74fe8",
    "PDGR-array-lossy-mask": "515a2939854f83039679b7b2fe2e9f22",
    "PDGR-dict-asynchronous": "445fc922cf681afb66f6ef3f89333c1a",
    "PDGR-dict-asynchronous-cap": "e98c52c2c81452b901c7d101ae2c20d2",
    "PDGR-dict-discrete": "7296d1d81a0566c87eeba86c31a61a8f",
    "PDGR-dict-discrete-all": "c50de3693f49f9f0a6676bd479da09b6",
    "PDGR-dict-discrete-cap": "62bae53764f4a8f81f1d1a0e6bab6d3a",
    "PDGR-dict-discrete-multi": "6b3cd5cb0fe63d59ba92723e5d7e479e",
    "PDGR-dict-discrete-nostop": "a45a71671fad28621fe8b6127a36e0a5",
    "PDGR-dict-discretized": "7296d1d81a0566c87eeba86c31a61a8f",
    "PDGR-dict-discretized-all": "c50de3693f49f9f0a6676bd479da09b6",
    "PDGR-dict-discretized-cap": "62bae53764f4a8f81f1d1a0e6bab6d3a",
    "PDGR-dict-discretized-multi": "6b3cd5cb0fe63d59ba92723e5d7e479e",
    "PDGR-dict-discretized-nostop": "3ec6473ccd5123857419995e643ec60f",
    "PDGR-dict-gossip": "5c8d7fcdb2d24259819b9222aee790ef",
    "PDGR-dict-gossip-cap": "c5bec3842ce53b5a1bd57fad0a44bfac",
    "PDGR-dict-gossip-pull": "71f2d754189746ec99c1f811fdc2ca78",
    "PDGR-dict-gossip-push": "f42c4b39e4c890864cd2708dca316206",
    "PDGR-dict-lossy": "8efda157743584ef67109fc932c2d979",
    "PDGR-dict-lossy-cap": "f12e5dcb25c3e800919b9ed3b7d74fe8",
    "SDG-array-discrete": "d0f385419d287cb5547be85dc6396807",
    "SDG-array-discrete-all": "1f85276151b0197dc0ff773bd1966229",
    "SDG-array-discrete-cap": "8980ccd4a738f97e9c204b32e1785008",
    "SDG-array-discrete-multi": "25e426eb403cac02a7c88af07461b808",
    "SDG-array-discrete-nostop": "1b4df4b1ab48b761c3d8178574f62fc3",
    "SDG-array-discretized": "f1cccd950dc595d119eece979b47aad4",
    "SDG-array-discretized-all": "1f85276151b0197dc0ff773bd1966229",
    "SDG-array-discretized-cap": "8980ccd4a738f97e9c204b32e1785008",
    "SDG-array-discretized-multi": "7c70a3da397d465e852158ccbb73327c",
    "SDG-array-discretized-nostop": "f0c5ca3a0e427e87aefe212613bf6cca",
    "SDG-array-gossip": "4542312097b4dfad84386eb3c5fc0f13",
    "SDG-array-gossip-cap": "22ec788d0ca60ec09b3ed0eed4717404",
    "SDG-array-gossip-mask": "e2f13387007b706fa0e600fc93a3946c",
    "SDG-array-gossip-pull": "f6af8410f0868a25854e2fa9518a633e",
    "SDG-array-gossip-push": "db4b9a76db988a89685eaa10be8ffaa1",
    "SDG-array-lossy": "9f5914c46d58db24083f685b12a4edee",
    "SDG-array-lossy-cap": "1b4ffec580a1f9097f5a9fea40fec2b8",
    "SDG-array-lossy-mask": "0c3193fe44be1ddd058280a54af8d9b8",
    "SDG-dict-discrete": "d0f385419d287cb5547be85dc6396807",
    "SDG-dict-discrete-all": "1f85276151b0197dc0ff773bd1966229",
    "SDG-dict-discrete-cap": "8980ccd4a738f97e9c204b32e1785008",
    "SDG-dict-discrete-multi": "25e426eb403cac02a7c88af07461b808",
    "SDG-dict-discrete-nostop": "1b4df4b1ab48b761c3d8178574f62fc3",
    "SDG-dict-discretized": "f1cccd950dc595d119eece979b47aad4",
    "SDG-dict-discretized-all": "1f85276151b0197dc0ff773bd1966229",
    "SDG-dict-discretized-cap": "8980ccd4a738f97e9c204b32e1785008",
    "SDG-dict-discretized-multi": "7c70a3da397d465e852158ccbb73327c",
    "SDG-dict-discretized-nostop": "f0c5ca3a0e427e87aefe212613bf6cca",
    "SDG-dict-gossip": "4542312097b4dfad84386eb3c5fc0f13",
    "SDG-dict-gossip-cap": "22ec788d0ca60ec09b3ed0eed4717404",
    "SDG-dict-gossip-pull": "f6af8410f0868a25854e2fa9518a633e",
    "SDG-dict-gossip-push": "db4b9a76db988a89685eaa10be8ffaa1",
    "SDG-dict-lossy": "9f5914c46d58db24083f685b12a4edee",
    "SDG-dict-lossy-cap": "1b4ffec580a1f9097f5a9fea40fec2b8",
    "SDGR-array-discrete": "e184a8c8f2b24d173c8044ee25190fbc",
    "SDGR-array-discrete-all": "65165a933344055381a84cc940f0ee0b",
    "SDGR-array-discrete-cap": "aba1ddb77078e3cc897d6a39c386c420",
    "SDGR-array-discrete-multi": "18ce204b5db1b9bb06d34ae6ce714123",
    "SDGR-array-discrete-nostop": "1904fdc1e6946a03cbebdadaebf3f212",
    "SDGR-array-discretized": "254d3e86e703832f06fc03b90cc756e3",
    "SDGR-array-discretized-all": "65165a933344055381a84cc940f0ee0b",
    "SDGR-array-discretized-cap": "aba1ddb77078e3cc897d6a39c386c420",
    "SDGR-array-discretized-multi": "46787dedb4c2a2e74b11140f6bdce12b",
    "SDGR-array-discretized-nostop": "4a2728f32dde938791fe8e50d2298b3e",
    "SDGR-array-gossip": "4651ba565813aea9c6356a7ea98707a9",
    "SDGR-array-gossip-cap": "8fff5bbb5561a9f1b710f6f96b767093",
    "SDGR-array-gossip-mask": "673bfaa14fa541a51dd5d78f8b8c905f",
    "SDGR-array-gossip-pull": "d14b7b6dcc600b4ddccdc46aea1eb52d",
    "SDGR-array-gossip-push": "a50373a679124984f061794f530000d3",
    "SDGR-array-lossy": "d575887bc10fe20b01e3cf6efc600cfc",
    "SDGR-array-lossy-cap": "afde1fb14323f42a4c405865d30182c8",
    "SDGR-array-lossy-mask": "33510bf7cb95bd9b00252a4559bddf01",
    "SDGR-dict-discrete": "e184a8c8f2b24d173c8044ee25190fbc",
    "SDGR-dict-discrete-all": "65165a933344055381a84cc940f0ee0b",
    "SDGR-dict-discrete-cap": "aba1ddb77078e3cc897d6a39c386c420",
    "SDGR-dict-discrete-multi": "18ce204b5db1b9bb06d34ae6ce714123",
    "SDGR-dict-discrete-nostop": "1904fdc1e6946a03cbebdadaebf3f212",
    "SDGR-dict-discretized": "254d3e86e703832f06fc03b90cc756e3",
    "SDGR-dict-discretized-all": "65165a933344055381a84cc940f0ee0b",
    "SDGR-dict-discretized-cap": "aba1ddb77078e3cc897d6a39c386c420",
    "SDGR-dict-discretized-multi": "46787dedb4c2a2e74b11140f6bdce12b",
    "SDGR-dict-discretized-nostop": "4a2728f32dde938791fe8e50d2298b3e",
    "SDGR-dict-gossip": "4651ba565813aea9c6356a7ea98707a9",
    "SDGR-dict-gossip-cap": "8fff5bbb5561a9f1b710f6f96b767093",
    "SDGR-dict-gossip-pull": "d14b7b6dcc600b4ddccdc46aea1eb52d",
    "SDGR-dict-gossip-push": "a50373a679124984f061794f530000d3",
    "SDGR-dict-lossy": "d575887bc10fe20b01e3cf6efc600cfc",
    "SDGR-dict-lossy-cap": "afde1fb14323f42a4c405865d30182c8",
    "one-node-array-discrete": "6d4ab0d74a7676044fe46a848d1df99f",
    "one-node-array-discretized": "f7dc926a4ab3b137fa88a19fed7c8861",
    "one-node-array-gossip": "f7dc926a4ab3b137fa88a19fed7c8861",
    "one-node-array-lossy": "f7dc926a4ab3b137fa88a19fed7c8861",
    "one-node-dict-discrete": "6d4ab0d74a7676044fe46a848d1df99f",
    "one-node-dict-discretized": "f7dc926a4ab3b137fa88a19fed7c8861",
    "one-node-dict-gossip": "f7dc926a4ab3b137fa88a19fed7c8861",
    "one-node-dict-lossy": "f7dc926a4ab3b137fa88a19fed7c8861",
}


def test_grid_matches_golden_table():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_flooding_run_matches_golden_digest(label):
    assert digest(*run_case(label)) == GOLDEN[label]


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_grid_reaches_the_edge_cases(backend):
    """The table pins the cases it is meant to: round-0 completion of a
    one-node network, and a run that keeps going after extinction."""
    _, alone = run_case(f"one-node-{backend}-discrete")
    assert alone.completed and alone.completion_round == 0
    _, kept = run_case(f"SDG-{backend}-discretized-nostop")
    assert kept.extinct and kept.rounds_run == 30


@pytest.mark.parametrize("backend", ["dict", "array"])
@pytest.mark.parametrize("process", ["discrete", "discretized"])
def test_extinction_round_is_the_first_extinct_round(backend, process):
    """A run that keeps going after extinction reports the round at
    which the informed set first emptied, not its last round."""
    network = PDG(n=20, d=1, seed=1, backend=BACKENDS[backend]())
    processes = ORACLE_PROCESSES if backend == "dict" else PROCESSES
    result = processes[process](
        network,
        source=min(network.state.alive_ids()),
        max_rounds=30,
        stop_when_extinct=False,
    )
    assert result.extinct and result.rounds_run == 30
    assert result.informed_sizes.index(0) == 21
    assert result.extinction_round == 21


def test_dict_digests_equal_their_array_twins():
    """Both backends list a node's neighbours in ascending id wherever a
    process spends draws along them, so every dict case pins the same
    run as its array twin."""
    for label, expected in GOLDEN.items():
        if "-dict-" in label:
            assert GOLDEN[label.replace("-dict-", "-array-")] == expected, label
