"""Fused windows edit only the reverse-index rows that outlive them.

A fused SDG/SDGR window that starts with a reverse index keeps it
exact, set order included, but it edits only the rows of the nodes
alive at its end: every edit to a row whose node dies inside the window
is dropped, because that row's set is replaced when the node dies.
Here the windows start with an
index that per-event rounds and neighbour queries have partly built,
and after each one the state must be what the hook loop leaves: the
dumped backend state, in-counts, every row's set in its iteration
order, epoch and generator state, then the next per-event records and
the backend invariants.  A spy index checks that no row of a node dying
in the window is built and no set the window later replaces is edited.
Under the SDG law the window's replay makes no discards, because every
slot targets an older node; that invariant is checked on both warm-ups.
Only NumPy and pytest are needed.
"""

from __future__ import annotations

import pytest

from repro.core.array_backend import _ReverseIndex
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
        # Both networks snapshot their index at the same state, so the
        # sets start in the same order, partly built on the kernel's.
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
    """A window longer than a fused chunk runs as several chunks, each
    starting with the index the one before left."""
    assert_touched_windows_replay_hooks(policy, 40, 3, [9000, 17], seed=5)


class _SpySet(set):
    """A row's set that logs its in-place edits."""

    __slots__ = ("row", "log")

    def add(self, item):
        self.log.append(("edit", self.row))
        super().add(item)

    def discard(self, item):
        self.log.append(("edit", self.row))
        super().discard(item)


class _SpyIndex(_ReverseIndex):
    """A reverse index that logs row builds and set replacements."""

    __slots__ = ("log", "_building")

    def __init__(self, slots, id_of):
        super().__init__(slots, id_of)
        self.log: list[tuple[str, int]] = []
        self._building = False

    def __setitem__(self, row, refs):
        spy = _SpySet(refs)
        spy.row, spy.log = row, self.log
        self.log.append(("build" if self._building else "reset", row))
        super().__setitem__(row, spy)

    def __missing__(self, row):
        self._building = True
        try:
            super().__missing__(row)
        finally:
            self._building = False
        return dict.__getitem__(self, row)


@pytest.mark.parametrize("size", [17, 40, 95])
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_window_leaves_dying_rows_alone(policy, size):
    n, d = 40, 3
    network, _ = twins(policy, n, d, "PCG64", seed=3, warm=True)
    network.run_rounds(5)
    state = network.state
    base = network.round_number - n
    dying = {state.row_for(u) for u in range(base, base + min(size, n))}
    spy = state._in_refs = _SpyIndex(state._slots, state._id_of)
    network.advance_rounds(size)
    log = spy.log
    assert log, "the window made no index operation"
    built = {row for kind, row in log if kind == "build"}
    assert not built & dying, sorted(built & dying)
    last_reset = {row: i for i, (kind, row) in enumerate(log) if kind == "reset"}
    stale = [
        (i, row)
        for i, (kind, row) in enumerate(log)
        if kind == "edit" and last_reset.get(row, -1) > i
    ]
    assert not stale, stale[:5]
    state.check_invariants()


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
