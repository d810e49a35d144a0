"""Golden digests of seeded per-event sessions.

The parity tests compare the array backend with the dict oracle
(``tests/oracles/dict_backend.py``), so a change to *shared* sampling
or policy code would pass them while shifting every seeded output.
These digests pin the RNG stream itself: each one hashes a seeded
per-event session's per-round event records (``edges_created`` in
order, ``edges_destroyed`` in ascending neighbour id), its final alive
order and out-slots, the completion round of a flood run on it, and the
backend's final ``mutation_epoch``.  A digest changes exactly when the
per-event trajectory does, and each one holds on the array backend and
on the dict oracle alike.

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

#: (churn, policy, d) -> sha256 of the session transcript, the same on
#: the array backend and on the dict oracle.
GOLDEN = {
    ("general", "capped", 3): (
        "6f33933b767db9b9835d6f87c44ee823"
        "5380a3f1c30039ffc0e1d905a4694aee"
    ),
    ("general", "capped", 5): (
        "e67773f0f0cdbb4c9f221434cffe054e"
        "9f9582b5fedb982bfc4aa4db1c3a43fb"
    ),
    ("general", "none", 3): (
        "2ecb13c79b549553697be0673a272c98"
        "726e18b9accda4b6e29e05a743b9a3f6"
    ),
    ("general", "none", 5): (
        "492bfc7c32cc39cce4d75fd3f5b56a28"
        "6eb06ff8d23f2bbd767735e5f5852efe"
    ),
    ("general", "regen", 3): (
        "7aa76579a400e3bb66857a0ea8229440"
        "d33825d8f1bfe8169ae8727302c6f9ad"
    ),
    ("general", "regen", 5): (
        "a0b07c2c013b49031ef103e36ff5dc9e"
        "fba1a70e0ad6092e44a341c49de3f32c"
    ),
    ("poisson", "capped", 3): (
        "1e59672aeb07db0264cf9be7f8ab5a69"
        "40afcb8c7e6dc096a6ae16973e4767d1"
    ),
    ("poisson", "capped", 5): (
        "4da40982584e15180ae178505a8aa897"
        "4eb6113de7837af1c992dced0cbf5376"
    ),
    ("poisson", "none", 3): (
        "49c0cc6f0dc9b53a414c8a6d6f65aa3c"
        "8cc2437bfc7c5ba7c821b1eaf0100add"
    ),
    ("poisson", "none", 5): (
        "12f259a042b6ea8f344e345c9e02898a"
        "c05e64dd0fd835b005d4b417d0696b42"
    ),
    ("poisson", "regen", 3): (
        "eeb73aa94ccf286b45801a5a62506998"
        "cdc847e156b883e05a02b648138128ac"
    ),
    ("poisson", "regen", 5): (
        "0881b199ba3a77e9281db38486602633"
        "79ace252c3def8e289a4719e23359cc3"
    ),
    ("streaming", "capped", 3): (
        "b8f447ff1206cb4f2572850f4e219060"
        "1b99c519d9c0488e45918d3858f59d3e"
    ),
    ("streaming", "capped", 5): (
        "949ef50305d9a4ba3749f0044b3f49f5"
        "67347a8f4a90156de1a9cbcc7646aac3"
    ),
    ("streaming", "none", 3): (
        "8b322a56100e05616141ad331caee21f"
        "47e17c991bc3de22e71b81ca1da7f9af"
    ),
    ("streaming", "none", 5): (
        "50e533542795205b92bbd97ac49fe6ff"
        "422c370eec9d7ff8df59238c7cedf7d3"
    ),
    ("streaming", "regen", 3): (
        "dc33679b5006a7efd482a934c8af580b"
        "46c40c43645b226b16a7472ebb5fcaf2"
    ),
    ("streaming", "regen", 5): (
        "45391c13e8a999df21662195fb350ca5"
        "75d1cd24d109898f7559868c1675aed1"
    ),
}

#: Each digest is checked on both backends.
CASES = sorted(
    (churn, policy, backend, d)
    for churn, policy, d in GOLDEN
    for backend in ("array", "dict")
)


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


@pytest.mark.parametrize("churn,policy,backend,d", CASES)
def test_per_event_session_matches_golden_digest(
    churn, policy, backend, d, monkeypatch
):
    transcript = session_transcript(churn, policy, backend, d, monkeypatch)
    assert digest(transcript) == GOLDEN[(churn, policy, d)]
