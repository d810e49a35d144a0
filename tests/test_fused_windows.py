"""Fused streaming windows against the policy-hook loop.

Under ``fast_rounds`` (or ``advance_to_time_batched``) SDG and SDGR
windows on the array backend run through
``ArraySlotBackend.apply_fused_rounds``, which takes the per-event
rounds' draws in their own encoding.  After every window the state must
be what the hook loop leaves after the same rounds: the dumped backend
state (slots, rows, free list, alive order, epoch), the in-counts, the
generator state and every row's reverse-index set.  A window drops the
reverse index, built or not at its start, and the next read snapshots
the same sets again.  The touched ids may be a superset.  This holds
for any partition into windows, warm or cold, on PCG64 and MT19937, with
the default and a tiny raw-word block.  Only NumPy and pytest are
needed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.errors import SimulationError
from repro.models.streaming import StreamingNetwork
from repro.scenario import ScenarioSpec, Simulation
from repro.service.checkpoint import build_payload, encode_value
from repro.util import sampling
from tests.test_exact_windows import GENERATORS, POLICIES, plain


def twins(policy: str, n: int, d: int, kind: str, seed: int, warm: bool):
    """The fused kernel's network and the hook loop's, on equal generators."""
    kernel_policy, hook_policy = POLICIES[policy]
    networks = []
    for make in (kernel_policy, hook_policy):
        rng = np.random.Generator(GENERATORS[kind](seed))
        network = StreamingNetwork(n, make(d), seed=rng, warm=warm)
        network.state.track_mutations()
        networks.append(network)
    return networks


def state_of(network: StreamingNetwork) -> dict:
    """The network's state, each reverse-index row as a set."""
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
        "rng": plain(network.rng.bit_generator.state),
    }


def random_windows(n: int, seed: int, count: int = 8) -> list[int]:
    """Window sizes from 1 to past 2n, so newborns die inside windows."""
    chooser = np.random.default_rng(seed)
    return [int(chooser.integers(1, 2 * n + 6)) for _ in range(count)]


def assert_windows_replay_hooks(policy, n, d, kind, warm, windows, index=True):
    """After each window the kernel's network is the hook loop's.  With
    *index* every window starts with the reverse index built, which it
    must not leave stale; without, every window starts without one."""
    kernel, hooks = twins(policy, n, d, kind, seed=n * 10 + d, warm=warm)
    for size in windows:
        if index:
            kernel.state._ensure_in_refs()
        else:
            kernel.state._in_refs = None
        kernel.advance_to_time_batched(kernel.now + size)
        hooks.run_rounds(size)
        assert state_of(kernel) == state_of(hooks), size
        theirs = hooks.state.drain_touched()
        assert theirs <= kernel.state.drain_touched(), size


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [3, 5, 40, 300])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_fused_windows_replay_the_hook_loop(warm, policy, n, d, kind):
    windows = [1, 7, n - 1, n, n + 3, 2 * n + 5, 1]
    windows += random_windows(n, seed=n + d, count=3)
    assert_windows_replay_hooks(policy, n, d, kind, warm, windows)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("n,d", [(3, 1), (5, 3), (40, 8), (300, 3)])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_fused_windows_across_block_refills(warm, policy, n, d, kind, monkeypatch):
    """Blocks of 37 words: every window refills, many mid-round."""
    monkeypatch.setattr(sampling, "_MAX_BLOCK_WORDS", 37)
    windows = random_windows(n, seed=7 * n + d)
    assert_windows_replay_hooks(policy, n, d, kind, warm, windows)


@pytest.mark.parametrize("n,d", [(3, 1), (5, 3), (40, 8), (300, 3)])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_windows_without_an_index_keep_its_sets(warm, policy, n, d):
    """A window that starts without a reverse index leaves it absent;
    the snapshot taken after it holds the hook loop's sets."""
    windows = [1, 7, n - 1, n, n + 3, 2 * n + 5, 1]
    assert_windows_replay_hooks(policy, n, d, "PCG64", warm, windows, index=False)


def test_n2_windows_replay_the_hook_loop():
    """Two nodes: no third node to take an orphan, nothing regenerates."""
    for policy in sorted(POLICIES):
        for warm in (True, False):
            assert_windows_replay_hooks(policy, 2, 3, "PCG64", warm, [1, 5, 2, 9])


def test_kernel_checks_its_preconditions():
    kernel, _ = twins("regen", 10, 2, "PCG64", seed=1, warm=True)
    state = kernel.state
    assert isinstance(state, ArraySlotBackend)
    before = state_of(kernel)
    with pytest.raises(SimulationError, match="death every round"):
        state.apply_fused_rounds(10, 3, 10, 2, True, kernel.rng)
    with pytest.raises(SimulationError, match="uniform out-degree"):
        state.apply_fused_rounds(11, 3, 10, 3, True, kernel.rng)
    state.allocate_id()  # an id the schedule does not expect
    with pytest.raises(SimulationError, match="id drift"):
        state.apply_fused_rounds(11, 3, 10, 2, True, kernel.rng)
    state._next_id -= 1
    assert state_of(kernel) == before
    state.remove_node(0, death_time=kernel.now)
    with pytest.raises(SimulationError, match="exactly 10 alive"):
        state.apply_fused_rounds(11, 3, 10, 2, True, kernel.rng)


@pytest.mark.parametrize("policy", ["regen", "none"])
@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
def test_fast_rounds_session_is_the_per_event_session(policy, warm, tmp_path):
    """A ``fast_rounds`` session with a checkpoint cadence, restored from
    a checkpoint taken off the cadence, ends as the per-event session:
    observer results, backend state, generator state and the checkpoint
    payload (but for the spec's ``fast_rounds`` and ``checkpoint_dir``)."""
    fields = dict(
        churn="streaming",
        policy=policy,
        n=40,
        d=3,
        horizon=130,
        seed=11,
        checkpoint_every=20,
        churn_params={} if warm else {"warm": False},
    )
    observers = ({"name": "degrees", "params": {"every": 10}},)
    sessions = {}
    for fast in (True, False):
        spec = ScenarioSpec(
            fast_rounds=fast, checkpoint_dir=str(tmp_path / str(fast)), **fields
        )
        sim = Simulation(spec, observers=observers)
        if fast:
            sim._run_windows(33)
            path = sim.save_checkpoint(tmp_path / "mid.json")
            sim = Simulation.restore(path)
        sessions[fast] = sim.run()
    fast, per_event = sessions[True], sessions[False]
    assert fast.results() == per_event.results()
    assert state_of(fast.network) == state_of(per_event.network)
    payloads = []
    for sim in (fast, per_event):
        payload = encode_value(build_payload(sim))
        del payload["spec"]["fast_rounds"], payload["spec"]["checkpoint_dir"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
