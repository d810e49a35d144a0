"""Golden digests of seeded per-event sessions.

The parity tests compare the array backend with the dict oracle
(``tests/oracles/dict_backend.py``), so a change to *shared* sampling
or policy code would pass them while shifting every seeded output.
These digests pin the RNG stream itself: each one hashes a seeded
per-event session's per-round event records (``edges_created`` /
``edges_destroyed`` in order), its final alive order and out-slots, the
completion round of a flood run on it, and the backend's final
``mutation_epoch``.  A digest changes exactly
when the per-event trajectory does.

Each configuration runs at ``d = 3`` and ``d = 5``, so births (``d``
requests) and regeneration waves are drawn on both sides of the sampler's
scalar/vector threshold (``repro.util.sampling._VECTOR_DRAW_MIN``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.scenario import ScenarioSpec
from repro.scenario.registry import build_network
from tests.oracles.dict_backend import (
    build_drivers_on_oracle,
    flood_discrete_reference,
)

_CAPPED = {"max_in_degree": 5, "max_attempts": 4}

#: (churn, policy, backend, d) -> sha256 of the session transcript.  The
#: "dict" sessions run on the oracle.  The backends differ only in
#: ``edges_destroyed`` order (each enumerates a dying node's neighbour
#: set in its own order).
GOLDEN = {
    ("general", "capped", "dict", 3): (
        "b19c520c63ea298657b51f76400c7b06"
        "3704c10246355a12d1d21b6f5b41ce68"
    ),
    ("general", "capped", "array", 3): (
        "ef70213507634ca7d78b5e8c036f9e3c"
        "1764eef79b54d7c13405e451deaac35b"
    ),
    ("general", "capped", "dict", 5): (
        "a9aaad48c9af779cfa78ab818fa04627"
        "cd726fed1efff1cb1eb0afec3094c12e"
    ),
    ("general", "capped", "array", 5): (
        "a080ade9dd8052ce2b1e25e3d74fa58b"
        "38b872afeb1bee01887e3b635fb53c9a"
    ),
    ("general", "none", "dict", 3): (
        "5c67b3f63291b419acaed55afaa0d366"
        "c252cddc3d4c3185f4112927e56f2636"
    ),
    ("general", "none", "array", 3): (
        "733f0108d34db1fd055f24472c80ed51"
        "57fcf963104b60e0734ea4e6c7e03a75"
    ),
    ("general", "none", "dict", 5): (
        "0b2a8c2c29b00811a385fa027951a9a0"
        "b708cdbc4b0136d4c773d5384925d3b4"
    ),
    ("general", "none", "array", 5): (
        "79a06d4423b24f2ed8e24187194a779b"
        "561576e40b08ac76bd3c6060c0fabccd"
    ),
    ("general", "regen", "dict", 3): (
        "5aa2f746fa7dd480d94bbec38dd18a54"
        "34a89c1b9954df6746caf2f3a0a4f9d9"
    ),
    ("general", "regen", "array", 3): (
        "93ab71fbfb68f672ddf2d0caf548c81f"
        "a49b49aabc89f8da81c935c4f236004b"
    ),
    ("general", "regen", "dict", 5): (
        "629d0cbefdc911f855390048d86d8b05"
        "77925215c375555cfbea966437f85c83"
    ),
    ("general", "regen", "array", 5): (
        "efdc906fb25ec3e5b6f51d5ba42eec0a"
        "9adc3cbeb36e35e16dd52f3e22ee916d"
    ),
    ("poisson", "capped", "dict", 3): (
        "0ee64b4315b93a266b948900b4413301"
        "933ad8c15dee007deaaa36b047925117"
    ),
    ("poisson", "capped", "array", 3): (
        "29595c59259cb562e6551a06b4e24d2c"
        "c7f5b4436b4709fcbd86791a92c02d73"
    ),
    ("poisson", "capped", "dict", 5): (
        "5dc1d6142596f8c5f5268bc7eca2e06d"
        "bc9e3c9c658a75a510f17611bbec3f2a"
    ),
    ("poisson", "capped", "array", 5): (
        "a657953fd49b579e29f094684fdb13bb"
        "d8b3b8a2c4f5046a84ac3e12c2309359"
    ),
    ("poisson", "none", "dict", 3): (
        "e163bf5b4d685671d7ab7aa51b6c843c"
        "bb83426af982b105417a6d1287fb9785"
    ),
    ("poisson", "none", "array", 3): (
        "00add5c461a7148338e5433f2791a24f"
        "33bcbff2f0b124500d70b842e12962f0"
    ),
    ("poisson", "none", "dict", 5): (
        "7bc75f27ef68c35d5dc783acef6525c4"
        "6120102b3596722ae50d22f2a1bb1401"
    ),
    ("poisson", "none", "array", 5): (
        "544d3fd7ead32772fe048fa595bf4cf2"
        "146739399ac00b65d6435c46982e48b8"
    ),
    ("poisson", "regen", "dict", 3): (
        "fde757878ba9a8be4295d6013b476687"
        "84b945dac31a05775ec4e8b6392f21f0"
    ),
    ("poisson", "regen", "array", 3): (
        "709f63726c258dac986ac78d36548dbe"
        "46e52ae65bce3e9f2b4744a4e6c140ee"
    ),
    ("poisson", "regen", "dict", 5): (
        "997198acc3e8f2ecd64624683567c235"
        "547fd17045d290e46e028d871e8c8ad1"
    ),
    ("poisson", "regen", "array", 5): (
        "2446c80222075f5901ed40eaaf08c209"
        "fd4bb2454dbc462e3347eae60811f67e"
    ),
    ("streaming", "capped", "dict", 3): (
        "f2740d5f7d3b765efab530158991478a"
        "73ef7860e19ca76be3b01cfd7e90de3f"
    ),
    ("streaming", "capped", "array", 3): (
        "6c8c170ca630aa20f77a8cb55b27de3f"
        "b7c13ccc4f294bd74b2f3d5a2a104119"
    ),
    ("streaming", "capped", "dict", 5): (
        "e3329c7c4094d8ef64769deb4dcbb381"
        "e9ad0a6e22abb8451e18fd48cd244438"
    ),
    ("streaming", "capped", "array", 5): (
        "54ffc1d4595e17ba608ef609f2efcf94"
        "b351f495bc949707e25831e5e330bb9c"
    ),
    ("streaming", "none", "dict", 3): (
        "8b322a56100e05616141ad331caee21f"
        "47e17c991bc3de22e71b81ca1da7f9af"
    ),
    ("streaming", "none", "array", 3): (
        "b9c855032d4f51a62fef25c91d3b892d"
        "987303a6b5b7986f422889d8e98a0663"
    ),
    ("streaming", "none", "dict", 5): (
        "50e533542795205b92bbd97ac49fe6ff"
        "422c370eec9d7ff8df59238c7cedf7d3"
    ),
    ("streaming", "none", "array", 5): (
        "0f3cc13502125f2a88927c1a01babb46"
        "8ae4e92824381cedc32104db9aed31d6"
    ),
    ("streaming", "regen", "dict", 3): (
        "689701e0e382b4d86611e866063da496"
        "4c7affbe114bb49cbf7c04aa02149b3b"
    ),
    ("streaming", "regen", "array", 3): (
        "60cde4bbae654cb017288209c8b3923c"
        "d60bf7c5074646dec1f44c419fba8266"
    ),
    ("streaming", "regen", "dict", 5): (
        "f55d46add1900ac1de66a7a6685a3834"
        "e362d0ef44a28669e73cffd8bc4b84d9"
    ),
    ("streaming", "regen", "array", 5): (
        "ec0789859b67429fb82eb19a7f12dc96"
        "7373f80dc1ad6884a8fb2b645a991ada"
    ),
}


def session_transcript(
    churn: str, policy: str, backend: str, d: int, monkeypatch
) -> dict:
    spec = ScenarioSpec(
        churn=churn,
        policy=policy,
        policy_params=_CAPPED if policy == "capped" else {},
        n=40,
        d=d,
        seed=2021,
    )
    if backend == "dict":
        build_drivers_on_oracle(monkeypatch)
    network = build_network(spec, seed=spec.seed)
    rounds = [
        [
            [
                type(event.kind).__name__,
                list(event.node_ids),
                [[e.source, e.target] for e in event.edges_created],
                [[e.source, e.target] for e in event.edges_destroyed],
            ]
            for event in report.events
        ]
        for report in network.run_rounds(25)
    ]
    state = network.state
    slots = [[u, state.out_slots_of(u)] for u in state.alive_ids()]
    if churn != "streaming":
        flood = flood_discretized
    elif backend == "dict":
        flood = flood_discrete_reference
    else:
        flood = flood_discrete
    result = flood(network, max_rounds=200)
    return {
        "rounds": rounds,
        "slots": slots,
        "flood_round": result.completion_round,
        "epoch": state.mutation_epoch(),
    }


def digest(transcript: dict) -> str:
    blob = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("churn,policy,backend,d", sorted(GOLDEN))
def test_per_event_session_matches_golden_digest(
    churn, policy, backend, d, monkeypatch
):
    transcript = session_transcript(churn, policy, backend, d, monkeypatch)
    assert digest(transcript) == GOLDEN[(churn, policy, backend, d)]
