"""Sessions no feed records, against the per-event path.

A :class:`~repro.scenario.Simulation` whose observers all have
``every = 0`` keeps no per-round report, so its windows step
``DynamicNetwork.advance_rounds``.  On SDG/SDGR with the array backend
that runs the rounds as one fused window.  The session must end as one
whose windows step ``run_rounds`` (the per-event path, forced here by
binding the base ``advance_rounds``): backend state, in-counts, every
reverse-index set, generator state, epoch, observer results, flood
result, cadence checkpoint bytes, a restored session's end, the next
per-event records (``edges_destroyed`` order included) and the backend
invariants.  Other drivers, policies and backends keep their
``run_rounds`` stream.  Only NumPy and pytest are needed.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.models.base import DynamicNetwork
from repro.scenario import ScenarioSpec, Simulation
from repro.scenario.registry import build_network
from tests.oracles.dict_backend import build_drivers_on_oracle
from tests.test_exact_windows import plain, records

POLICIES = {"SDG": "none", "SDGR": "regen"}


def per_event(sim: Simulation) -> Simulation:
    """*sim* with its network's ``advance_rounds`` stepping ``run_rounds``."""
    network = sim.network
    network.advance_rounds = functools.partial(
        DynamicNetwork.advance_rounds, network
    )
    return sim


def state_of(sim: Simulation) -> dict:
    network = sim.network
    state = network.state
    in_refs = state._ensure_in_refs()
    return {
        "rounds": sim.rounds_completed,
        "now": network.now,
        "dump": {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in state.dump_state().items()
        },
        "in_count": state._in_count.tolist(),
        "in_refs": {
            u: set(in_refs[state.row_for(u)]) for u in state.alive_ids()
        },
        "epoch": state.mutation_epoch(),
        "rng": plain(network.rng.bit_generator.state),
        "results": sim.results(),
    }


def checkpoints(directory: Path) -> list[Path]:
    """The cadence checkpoints in round order (the file names carry a
    per-session tag, then the round)."""
    return sorted(directory.glob("ckpt-*.json"), key=lambda p: p.stem[-10:])


def spec_for(model: str, n: int, d: int, warm: bool) -> ScenarioSpec:
    return ScenarioSpec(
        churn="streaming",
        policy=POLICIES[model],
        n=n,
        d=d,
        horizon=2 * n + 17,
        seed=n * 10 + d,
        protocol="discrete",
        churn_params={} if warm else {"warm": False},
    )


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [2, 3, 5, 40, 300])
@pytest.mark.parametrize("model", sorted(POLICIES))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_unrecorded_session_is_the_per_event_session(warm, model, n, d, tmp_path):
    spec = spec_for(model, n, d, warm)
    every = n // 3 + 7  # cadence windows cut the cold prefix and later rounds
    sessions = {}
    for side in ("unrecorded", "per_event"):
        sim = Simulation(
            spec,
            observers=("degrees", "isolated"),
            checkpoint_every=every,
            checkpoint_dir=tmp_path / side,
        )
        assert not sim._feeds
        if side == "per_event":
            per_event(sim)
        sessions[side] = sim.run()
    unrecorded, reference = sessions["unrecorded"], sessions["per_event"]
    assert state_of(unrecorded) == state_of(reference)
    written = [
        [path.read_bytes() for path in checkpoints(tmp_path / side)]
        for side in sessions
    ]
    assert len(written[0]) == spec.horizon // every
    assert written[0] == written[1]

    # Resumed from its first cadence checkpoint, each ends as before.
    for side, sim in sessions.items():
        restored = Simulation.restore(checkpoints(tmp_path / side)[0])
        if side == "per_event":
            per_event(restored)
        assert state_of(restored.run()) == state_of(sim)

    assert unrecorded.flood() == reference.flood()
    assert plain(unrecorded.network.rng.bit_generator.state) == plain(
        reference.network.rng.bit_generator.state
    )
    later = [records(sim.network.run_rounds(60)) for sim in sessions.values()]
    assert later[0] == later[1]
    for sim in sessions.values():
        sim.state.check_invariants()
    assert state_of(unrecorded) == state_of(reference)


@pytest.mark.parametrize("model", sorted(POLICIES))
def test_incremental_expansion_observer_sees_the_same_graphs(model):
    """An ``every = 0`` incremental probe runs at each ``run()`` end; the
    fused rounds' touched ids are a superset, so its cached balls stay
    valid and the probes equal the per-event session's and cold ones."""
    spec = spec_for(model, 60, 3, warm=True)
    observers = (
        {"name": "expansion", "params": {"incremental": True, "max_size": 12}},
        {"name": "expansion", "params": {"max_size": 12}},
    )
    results = []
    for side in ("unrecorded", "per_event"):
        sim = Simulation(spec, observers=observers)
        if side == "per_event":
            per_event(sim)
        for rounds in (5, 40, 1, 90):
            sim.run(rounds)
        results.append(sim.results())
    assert results[0] == results[1]
    assert results[0]["expansion"] == results[0]["expansion_2"]
    assert len(results[0]["expansion"]["series"]) == 4


def test_unrecorded_windows_run_the_fused_kernel(monkeypatch):
    """The steady-state rounds of a feedless session take one fused call
    per cadence window; a feed sends the session back to
    ``run_rounds``."""
    calls = []
    kernel = ArraySlotBackend.apply_fused_rounds

    def spy(self, first_round, rounds, *args):
        calls.append((first_round, rounds))
        return kernel(self, first_round, rounds, *args)

    monkeypatch.setattr(ArraySlotBackend, "apply_fused_rounds", spy)
    spec = spec_for("SDGR", 40, 3, warm=False)
    Simulation(spec, observers=("degrees",)).run()
    assert calls == [(41, 57)]
    calls.clear()
    Simulation(spec, observers=({"name": "degrees", "params": {"every": 9}},)).run()
    assert calls == []


# ----------------------------------------------------------------------
# drivers that keep their run_rounds stream
# ----------------------------------------------------------------------


FALLBACK_SPECS = {
    "tokens": dict(churn="tokens", policy="none", n=30, d=3),
    "central_cache": dict(churn="central_cache", policy="none", n=30, d=3),
    "capped": dict(
        churn="streaming", policy="capped", n=30, d=3,
        policy_params={"max_in_degree": 5},
    ),
    "raes": dict(churn="streaming", policy="raes", n=30, d=3),
    "poisson": dict(churn="poisson", policy="regen", n=30, d=3),
    "general": dict(churn="general", policy="regen", n=30, d=3),
    "threshold": dict(churn="threshold", policy="regen", n=30, d=3),
    "adversarial": dict(churn="adversarial", policy="regen", n=30, d=3),
}


def driver_state(network: DynamicNetwork) -> tuple:
    return (
        network.now,
        network.snapshot(),
        network.state.mutation_epoch(),
        plain(network.rng.bit_generator.state),
    )


def assert_keeps_run_rounds_stream(spec: ScenarioSpec) -> None:
    stepped, advanced = (build_network(spec, seed=5) for _ in range(2))
    for count in (1, 17, 40):
        stepped.run_rounds(count)
        advanced.advance_rounds(count)
        assert driver_state(advanced) == driver_state(stepped), count
    later = [records(network.run_rounds(10)) for network in (advanced, stepped)]
    assert later[0] == later[1]


@pytest.mark.parametrize("name", sorted(FALLBACK_SPECS))
def test_other_drivers_and_policies_keep_their_stream(name, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the fused kernel ran")

    monkeypatch.setattr(ArraySlotBackend, "apply_fused_rounds", refuse)
    spec = ScenarioSpec(horizon=60, seed=2, **FALLBACK_SPECS[name])
    assert_keeps_run_rounds_stream(spec)


@pytest.mark.parametrize("model", sorted(POLICIES))
def test_dict_oracle_keeps_its_hook_stream(model, monkeypatch):
    build_drivers_on_oracle(monkeypatch)
    spec = ScenarioSpec(
        churn="streaming", policy=POLICIES[model], n=20, d=3, horizon=60, seed=2
    )
    assert_keeps_run_rounds_stream(spec)
