"""Exact streaming windows against the policy-hook loop.

``StreamingNetwork.run_rounds(k)`` runs uniform-policy rounds on the
array backend through one window kernel,
``ArraySlotBackend.apply_exact_rounds``, which draws from one raw-word
source.  A policy subclass that overrides a hook falls off the kernel
(``round_batch_regenerate`` is ``None``), so a trivial override forces
the hook loop the kernel must reproduce: the same per-round records,
slots, reverse-index sets, alive order, epoch, touched ids and generator
state, for every partition of the rounds into windows.
Only NumPy and pytest are needed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edge_policy import NoRegenerationPolicy, RegenerationPolicy
from repro.errors import SimulationError
from repro.models.streaming import StreamingNetwork
from repro.scenario import ScenarioSpec, Simulation
from repro.scenario import simulation as simulation_module


class HookRegeneration(RegenerationPolicy):
    def repair_orphans(self, state, orphaned, time, rng, record):
        super().repair_orphans(state, orphaned, time, rng, record)


class HookNoRegeneration(NoRegenerationPolicy):
    def repair_orphans(self, state, orphaned, time, rng, record):
        super().repair_orphans(state, orphaned, time, rng, record)


POLICIES = {
    "regen": (RegenerationPolicy, HookRegeneration),
    "none": (NoRegenerationPolicy, HookNoRegeneration),
}

GENERATORS = {"PCG64": np.random.PCG64, "MT19937": np.random.MT19937}


def twins(policy: str, n: int, d: int, kind: str, seed: int, warm: bool):
    """The kernel's network and the hook loop's, on equal generators."""
    kernel_policy, hook_policy = POLICIES[policy]
    networks = []
    for make in (kernel_policy, hook_policy):
        rng = np.random.Generator(GENERATORS[kind](seed))
        network = StreamingNetwork(n, make(d), seed=rng, warm=warm)
        network.state.track_mutations()
        networks.append(network)
    kernel, hooks = networks
    assert kernel.policy.round_batch_regenerate is not None
    assert hooks.policy.round_batch_regenerate is None
    return kernel, hooks


def records(reports) -> list:
    return [
        [
            report.start_time,
            report.end_time,
            [
                [
                    type(event.kind).__name__,
                    event.time,
                    list(event.node_ids),
                    [tuple(e) for e in event.edges_created],
                    [tuple(e) for e in event.edges_destroyed],
                ]
                for event in report.events
            ],
        ]
        for report in reports
    ]


def state_of(network: StreamingNetwork) -> dict:
    state = network.state
    in_refs = state._ensure_in_refs()
    dump = state.dump_state()
    return {
        "round": network.round_number,
        "now": network.now,
        "scalars": {
            key: value
            for key, value in dump.items()
            if not isinstance(value, np.ndarray)
        },
        "arrays": {
            key: value.tolist()
            for key, value in dump.items()
            if isinstance(value, np.ndarray)
        },
        "in_count": state._in_count.tolist(),
        "in_refs": {
            u: set(in_refs[state.row_for(u)]) for u in state.alive_ids()
        },
        "touched": sorted(state.drain_touched()),
        "rng": plain(network.rng.bit_generator.state),
    }


def plain(value):
    """*value* with arrays as lists (MT19937's state holds its key)."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def window_sizes(partition: str, total: int) -> list[int]:
    if partition == "whole":
        return [total]
    size = int(partition)
    return [min(size, total - start) for start in range(0, total, size)]


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [2, 3, 5, 40, 300])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_windows_replay_the_hook_loop(policy, n, d, kind):
    """From an empty network through n + 25 rounds (births only, then
    deaths), every window partition leaves what the hook loop leaves."""
    total = n + 25
    for partition in ("1", "7", "whole"):
        kernel, hooks = twins(policy, n, d, kind, seed=n * 10 + d, warm=False)
        for size in window_sizes(partition, total):
            ours = kernel.run_rounds(size)
            theirs = [hooks.advance_round() for _ in range(size)]
            assert records(ours) == records(theirs), partition
            assert state_of(kernel) == state_of(hooks), partition


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_warm_network_and_single_rounds(policy):
    """After the exact warm-up: ``advance_round`` is a one-round window,
    and windows of mixed sizes keep matching the hook loop."""
    kernel, hooks = twins(policy, 50, 4, "PCG64", seed=7, warm=True)
    assert state_of(kernel) == state_of(hooks)
    for size in (1, 1, 13, 2, 60, 1):
        if size == 1:
            ours = [kernel.advance_round()]
        else:
            ours = kernel.run_rounds(size)
        theirs = [hooks.advance_round() for _ in range(size)]
        assert records(ours) == records(theirs)
        assert state_of(kernel) == state_of(hooks)


def test_zero_rounds_is_a_no_op():
    kernel, _ = twins("regen", 10, 2, "PCG64", seed=1, warm=True)
    before = state_of(kernel)
    assert kernel.run_rounds(0) == []
    assert state_of(kernel) == before


def test_id_drift_is_still_checked():
    kernel, hooks = twins("regen", 10, 2, "PCG64", seed=1, warm=True)
    for network in (kernel, hooks):
        network.state.allocate_id()  # an id the schedule does not expect
        with pytest.raises(SimulationError, match="id drift"):
            network.run_rounds(3)


def test_missing_dying_node_is_still_checked():
    kernel, _ = twins("regen", 10, 2, "PCG64", seed=1, warm=True)
    kernel.state.remove_node(0, death_time=kernel.now)
    with pytest.raises(SimulationError, match="not alive"):
        kernel.run_rounds(2)


def old_session_loop(sim: Simulation, rounds: int) -> Simulation:
    """The session loop before windows: one ``advance_round`` per round."""
    for _ in range(rounds):
        report = sim.network.advance_round()
        sim.rounds_completed += 1
        sim._dispatch(report)
        sim._maybe_checkpoint()
    return sim


OBSERVERS = (
    "size",
    {"name": "degrees", "params": {"every": 6}},
    {"name": "isolated", "params": {"every": 12}},
)


@pytest.mark.parametrize("policy", ["regen", "none", "capped"])
@pytest.mark.parametrize("window_cap", [1024, 5])
def test_session_windows_match_round_by_round(policy, window_cap, monkeypatch):
    """Per-event sessions step windows ending on multiples of the
    cadence gcd (6 here), cut to the window cap, also after a first
    stretch that ends between cadences; the observers see what a
    round-by-round loop shows them."""
    monkeypatch.setattr(simulation_module, "_MAX_EXACT_WINDOW", window_cap)
    spec = ScenarioSpec(
        churn="streaming",
        policy=policy,
        policy_params={"max_in_degree": 5} if policy == "capped" else {},
        n=40,
        d=3,
        horizon=30,
        seed=3,
    )
    windowed = Simulation(spec, observers=OBSERVERS)
    windowed._run_windows(7)
    windowed.run()
    stepped = old_session_loop(Simulation(spec, observers=OBSERVERS), 30)
    stepped._notify_finish()
    assert windowed.results() == stepped.results()
    assert windowed.snapshot() == stepped.snapshot()
    assert plain(windowed.network.rng.bit_generator.state) == plain(
        stepped.network.rng.bit_generator.state
    )


def test_fused_windows_land_on_cadences_after_an_unaligned_start():
    spec = ScenarioSpec(
        churn="streaming", n=40, d=3, horizon=16, seed=13, fast_rounds=True
    )
    observers = ({"name": "degrees", "params": {"every": 4}},)
    split = Simulation(spec, observers=observers)
    split._run_windows(7)
    split.run()
    whole = Simulation(spec, observers=observers).run()
    times = [entry["time"] for entry in split.results()["degrees"]["series"]]
    assert times == [44.0, 48.0, 52.0, 56.0]
    assert split.results() == whole.results()
