"""Scenario smoke matrix: every registered protocol, on the array backend
and (where the protocol runs on it) the dict oracle.

Quick-scale end-to-end runs through the declarative layer — churn model,
edge policy, protocol and observers all resolved by name, exactly the way
a JSON scenario would.  The "dict" cases build their drivers on
``tests/oracles/dict_backend.py``; the session's plain flooding needs
the array backend's mask frontier, so it has no dict case.  CI runs
this file as its own job (see ``.github/workflows/ci.yml``); each case
asserts the broadcast makes real progress, not exact trajectories.
"""

from __future__ import annotations

import math

import pytest

from repro.flooding import protocol_names
from repro.scenario import ScenarioSpec, observer_names, simulate
from tests.oracles.dict_backend import (
    BACKENDS,
    build_drivers_on_oracle,
    flood_discrete_reference,
)

#: protocol → a quick scenario exercising it (n kept small for CI).
PROTOCOL_SCENARIOS: dict[str, ScenarioSpec] = {
    "discrete": ScenarioSpec(
        churn="streaming", policy="regen", n=100, d=8, horizon=100,
        protocol="discrete", protocol_params={"max_rounds": 120},
    ),
    "discretized": ScenarioSpec(
        churn="poisson", policy="regen", n=100, d=35,
        protocol="discretized", protocol_params={"max_rounds": 120},
    ),
    "asynchronous": ScenarioSpec(
        churn="poisson", policy="regen", n=100, d=35,
        protocol="asynchronous", protocol_params={"max_time": 120.0},
    ),
    "gossip": ScenarioSpec(
        churn="streaming", policy="regen", n=100, d=8, horizon=100,
        protocol="gossip",
        protocol_params={"max_rounds": 400, "seed": 1},
    ),
    "lossy": ScenarioSpec(
        churn="streaming", policy="regen", n=100, d=8, horizon=100,
        protocol="lossy",
        protocol_params={"loss": 0.2, "max_rounds": 400, "seed": 1},
    ),
}


def test_matrix_covers_every_registered_protocol():
    assert sorted(PROTOCOL_SCENARIOS) == protocol_names()


@pytest.mark.parametrize(
    "protocol,backend",
    [
        (protocol, backend)
        for backend in ("dict", "array")
        for protocol in sorted(PROTOCOL_SCENARIOS)
        if (protocol, backend) != ("discrete", "dict")
    ],
)
def test_protocol_backend_smoke(protocol, backend, monkeypatch):
    spec = PROTOCOL_SCENARIOS[protocol]
    if backend == "dict":
        build_drivers_on_oracle(monkeypatch)
    elif protocol in ("gossip", "lossy"):
        # exercise the mask-frontier fast path where it exists
        spec = spec.with_(
            protocol_params={**spec.protocol_params, "vectorized": True}
        )
    sim = simulate(spec, seed=0)
    assert type(sim.state) is BACKENDS[backend]
    result = sim.flood()
    assert result.completed, f"{protocol} on {backend} did not complete"
    n = spec.n
    assert result.completion_round <= 12 * math.log2(n) or protocol in (
        "gossip", "lossy",
    )
    sim.state.check_invariants()


def test_observer_matrix_smoke():
    spec = ScenarioSpec(
        churn="streaming", policy="regen", n=60, d=6, horizon=30,
        protocol="discrete",
    )
    sim = simulate(
        spec,
        seed=0,
        observers=[name for name in observer_names()],
    )
    sim.flood()
    results = sim.results()
    assert set(results) == set(observer_names())
    assert results["coverage"]["all_completed"] is True
    assert results["isolated"]["final"]["fraction"] == 0.0
    assert results["degrees"]["final"]["mean_degree"] > 6


def test_batched_scenario_smoke(driver_backend):
    spec = ScenarioSpec(
        churn="poisson", policy="regen", n=100, d=35, horizon=20,
        churn_params={"fast_warm": True}, fast_rounds=True,
        protocol="discretized", protocol_params={"max_rounds": 120},
    )
    sim = simulate(spec, seed=0)
    assert sim.flood().completed
    sim.state.check_invariants()


def test_raes_scenario_smoke(driver_backend):
    """RAES bounded-degree maintenance end-to-end on both backends: cap
    held, out-degrees full, broadcast completes at O(log n) speed."""
    spec = ScenarioSpec(
        churn="streaming", policy="raes", policy_params={"c": 2},
        n=100, d=8, horizon=100,
        protocol="discrete", protocol_params={"max_rounds": 120},
    )
    sim = simulate(spec, seed=0)
    cap = 2 * spec.d
    state = sim.state
    for u in state.alive_ids():
        assert state.in_slot_count(u) <= cap
        assert all(t is not None for t in state.out_slots_of(u))
    if driver_backend == "dict":
        # The oracle floods through the set frontier.
        result = flood_discrete_reference(sim.network, max_rounds=120)
    else:
        result = sim.flood()
    assert result.completed
    assert result.completion_round <= 12 * math.log2(spec.n)
    state.check_invariants()


def test_raes_batched_scenario_smoke():
    """RAES through the batched Poisson windows (the bulk accept/reject
    sampler)."""
    spec = ScenarioSpec(
        churn="poisson", policy="raes", policy_params={"c": 2},
        n=100, d=8, horizon=20,
        churn_params={"fast_warm": True}, fast_rounds=True,
        protocol="discretized", protocol_params={"max_rounds": 120},
    )
    sim = simulate(spec, seed=0)
    cap = 2 * spec.d
    for u in sim.state.alive_ids():
        assert sim.state.in_slot_count(u) <= cap
    assert sim.flood().completed
    sim.state.check_invariants()
