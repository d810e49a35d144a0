"""Fused windows edit only the reverse-index rows that outlive them.

A fused SDG/SDGR window that starts with a reverse index keeps it
exact, set order included, but only the rows of the nodes alive at its
end receive edits: every edit to a row whose node dies inside the window
is dropped, because that row's set is replaced when the node dies.
The window builds no row and edits only sets built before it; the
others replay their edits when first read (see
``tests/test_deferred_index.py``).
Here the windows start with an
index that per-event rounds and neighbour queries have partly built,
and after each one the state must be what the hook loop leaves: the
dumped backend state, in-counts, every row's set in its iteration
order, epoch and generator state, then the next per-event records and
the backend invariants.  A spy index checks that no row is built inside
a window (so none of a node dying in it), that no set the window later
replaces is edited, and that the first read after it builds each
unbuilt surviving row once.
Under the SDG law the window makes no discards, because every
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
    """A reverse index that logs row builds, stores and drops; after
    :meth:`watch` the sets built so far also log their edits."""

    __slots__ = ("log",)

    def __init__(self, slots, id_of):
        super().__init__(slots, id_of)
        self.log: list[tuple[str, int]] = []

    def __missing__(self, row):
        self.log.append(("build", row))
        return super().__missing__(row)

    def __setitem__(self, row, refs):
        self.log.append(("store", row))
        super().__setitem__(row, refs)

    def pop(self, row, *default):
        if row in self:
            self.log.append(("drop", row))
        return super().pop(row, *default)

    def watch(self) -> None:
        """Swap every built set for a logging copy (same order as a
        plain ``set`` copy)."""
        for row, refs in list(self.items()):
            spy = _SpySet(refs)
            spy.row, spy.log = row, self.log
            dict.__setitem__(self, row, spy)


@pytest.mark.parametrize("size", [17, 40, 95])
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_window_leaves_dying_rows_alone(policy, size):
    """Inside a window no row is built and only sets built before it
    are edited, none of them one the window later replaces (so no row of
    a dying node is built or edited).  After it, the first read builds
    each unbuilt surviving row once, in the hook loop's set order."""
    n, d = 40, 3
    network, hooks = twins(policy, n, d, "PCG64", seed=3, warm=True)
    for net in (network, hooks):
        net.run_rounds(5)
    state, theirs = network.state, hooks.state
    base = network.round_number - n
    dying = {state.row_for(u) for u in range(base, base + min(size, n))}
    spy = state._in_refs = _SpyIndex(state._slots, state._id_of)
    their_refs = theirs._in_refs = _ReverseIndex(theirs._slots, theirs._id_of)
    # Build rows of nodes that die in the window and of nodes that
    # outlive it, and copy them alike on both sides.
    for u in sorted(state.alive_ids())[::4]:
        state.neighbors(u)
        theirs.neighbors(u)
    spy.watch()
    for row in list(their_refs):
        their_refs[row] = set(their_refs[row])
    before = set(spy)
    assert before & dying and (size >= n or before - dying)
    start = len(spy.log)
    network.advance_rounds(size)
    hooks.run_rounds(size)
    log = spy.log[start:]
    built = {row for kind, row in log if kind in ("build", "store")}
    assert not built, sorted(built)
    edited = {row for kind, row in log if kind == "edit"}
    assert edited <= set(spy) <= before, sorted(edited - set(spy))
    assert edited or size >= n
    last_drop = {row: i for i, (kind, row) in enumerate(log) if kind == "drop"}
    stale = [
        (i, row)
        for i, (kind, row) in enumerate(log)
        if kind == "edit" and last_drop.get(row, -1) > i
    ]
    assert not stale, stale[:5]
    assert spy._pending

    alive = sorted(state.alive_ids())
    unbuilt = {state.row_for(u) for u in alive} - set(spy)
    start = len(spy.log)
    for u in alive:
        assert list(spy[state.row_for(u)]) == list(their_refs[theirs.row_for(u)])
    builds = [row for kind, row in spy.log[start:] if kind == "build"]
    assert sorted(builds) == sorted(unbuilt)
    assert state_of(network) == state_of(hooks)
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
