"""Fused windows that start on a partly built reverse index.

Per-event rounds and neighbour queries build some rows of the reverse
index before each fused SDG/SDGR window; the window drops it, and after
each one the state must be what the hook loop leaves: the dumped
backend state, in-counts, every row's set, epoch and generator state,
then the next per-event records and the backend invariants.  Under the
SDG law every slot targets an older node, which is checked on both
warm-ups.  Only NumPy and pytest are needed.
"""

from __future__ import annotations

import pytest

from repro.models.streaming import StreamingNetwork
from tests.test_exact_windows import POLICIES, records
from tests.test_fused_windows import state_of, twins


def touch(network, rounds: int, probes: int) -> None:
    """Drop the reverse index, then build some of its rows again: a few
    per-event rounds and neighbour queries."""
    state = network.state
    state._in_refs = None
    network.run_rounds(rounds)
    ids = sorted(state.alive_ids())
    for u in ids[: 2 * probes : 2]:
        state.neighbors(u)


def assert_touched_windows_replay_hooks(policy, n, d, windows, seed):
    kernel, hooks = twins(policy, n, d, "PCG64", seed=seed, warm=True)
    partly_built = 0
    for step, size in enumerate(windows):
        # Both networks run the same per-event rounds; the kernel's
        # index is partly built when its window starts.
        touch(kernel, step % 3, probes=step + 1)
        touch(hooks, step % 3, probes=0)
        partly_built += 0 < len(kernel.state._in_refs) < n
        kernel.advance_rounds(size)
        hooks.run_rounds(size)
        assert state_of(kernel) == state_of(hooks), (step, size)
        assert (
            kernel.state.mutation_epoch() == hooks.state.mutation_epoch()
        ), (step, size)
    assert partly_built
    assert records(kernel.run_rounds(60)) == records(hooks.run_rounds(60))
    assert state_of(kernel) == state_of(hooks)
    kernel.state.check_invariants()


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [3, 5, 40, 300])
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_partly_built_index_replays_the_hook_loop(policy, n, d):
    windows = [1, n // 2 + 1, n - 1, n, n + 1, 2 * n + 5, 3]
    assert_touched_windows_replay_hooks(policy, n, d, windows, seed=n * 10 + d)


@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_windows_of_several_chunks(policy):
    """A window longer than a fused chunk runs as several chunks."""
    assert_touched_windows_replay_hooks(policy, 40, 3, [9000, 17], seed=5)


@pytest.mark.parametrize("fast_warm", [False, True], ids=["exact", "fast"])
def test_sdg_slots_target_older_nodes(fast_warm):
    """Under the SDG law a node's slots only ever target older nodes, so
    the oldest node has no out-edge left when it dies."""
    n, d = 40, 3
    network = StreamingNetwork(
        n, POLICIES["none"][0](d), seed=7, fast_warm=fast_warm
    )
    for size in (1, 17, n, 2 * n + 3):
        network.advance_rounds(size)
        state = network.state
        ids = sorted(state.alive_ids())
        for u in ids:
            assert all(
                t is None or t < u for t in state.out_slots_of(u)
            ), (size, u)
        assert all(t is None for t in state.out_slots_of(ids[0])), size
