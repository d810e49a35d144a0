"""Fused windows defer their reverse-index edits to the first read.

A fused SDG/SDGR window that starts with a reverse index hands it the
window's edits on surviving rows as one block: built rows are edited at
once, the rows of nodes born in the window are marked reset, and every
other row keeps segments that it replays when first looked up.  Here
chains of feedless windows run with no per-event operation between
them, so segments pile up across windows and resets, and then every row
is read in a seeded random order: each set, in its iteration order, must
be the hook loop's, and so must the next per-event records.  Pending
storage is bounded by the edits of the last ``n`` rounds, and dropping
the index (a whole-population birth batch, a checkpoint restore) leaves
no pending segment or reset mark behind.  Only NumPy and pytest are
needed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.array_backend import _ReverseIndex
from tests.test_exact_windows import records
from tests.test_fused_windows import state_of, twins

NS = [3, 5, 40, 300]
DS = [1, 3, 8]
POLICIES = pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])


def pending_edits(index: _ReverseIndex) -> int:
    """Number of edits waiting in unbuilt rows' segments."""
    return sum(
        hi - lo for segments in index._pending.values() for _, lo, hi in segments
    )


def window_sizes(n: int, chooser: np.random.Generator, count: int) -> list[int]:
    """*count* window sizes drawn from below, at and above *n*."""
    sizes = [max(n // 3, 1), n - 1, n, n + 1, 2 * n + 3]
    return [int(size) for size in chooser.choice(sizes, size=count)]


def read_every_row(network, hooks, chooser: np.random.Generator) -> None:
    """Read every alive row, in a random order, on both networks and
    compare the sets in iteration order."""
    state, theirs = network.state, hooks.state
    mine, their_refs = state._ensure_in_refs(), theirs._ensure_in_refs()
    for u in chooser.permutation(sorted(state.alive_ids())).tolist():
        assert list(mine[state.row_for(u)]) == list(
            their_refs[theirs.row_for(u)]
        ), u
    assert not mine.deferred_rows()


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
@POLICIES
def test_chained_windows_replay_the_hook_loop(policy, n, d):
    network, hooks = twins(policy, n, d, "PCG64", seed=7 * n + d, warm=True)
    chooser = np.random.default_rng(n * 100 + d)
    # Both networks snapshot their index at the same state.
    network.state._in_refs = hooks.state._in_refs = None
    for chain_length in (int(chooser.integers(2, 6)), int(chooser.integers(2, 6))):
        for size in window_sizes(n, chooser, chain_length):
            network.advance_rounds(size)
            hooks.run_rounds(size)
        # The first chain starts on an unbuilt index, the second on one
        # that reading every row has fully built.
        assert network.state._in_refs.deferred_rows()
        read_every_row(network, hooks, chooser)
        assert state_of(network) == state_of(hooks)
    assert records(network.run_rounds(60)) == records(hooks.run_rounds(60))
    assert state_of(network) == state_of(hooks)
    network.state.check_invariants()


@pytest.mark.parametrize("n", [5, 40, 300])
@POLICIES
def test_pending_edits_stay_within_the_last_n_rounds(policy, n, monkeypatch):
    """After 40 unread windows of n/3 rounds the pending segments hold no
    more edits than the windows covering the last n rounds handed over,
    and reference no older block."""
    sizes: list[int] = []
    blocks: list[int] = []
    take_edits = _ReverseIndex.take_edits

    def counted(self, rows, edits, reset):
        sizes.append(rows.size)
        blocks.append(id(edits))
        take_edits(self, rows, edits, reset)

    monkeypatch.setattr(_ReverseIndex, "take_edits", counted)
    network, hooks = twins(policy, n, 3, "PCG64", seed=n, warm=True)
    network.state._in_refs = hooks.state._in_refs = None
    W = max(n // 3, 1)
    for _ in range(40):
        network.advance_rounds(W)
    assert len(sizes) == 40
    recent = math.ceil(n / W)
    index = network.state._in_refs
    assert 0 < pending_edits(index) <= sum(sizes[-recent:])
    held = {
        id(block) for segments in index._pending.values() for block, _, _ in segments
    }
    assert held <= set(blocks[-recent:])
    network.state.check_invariants()
    hooks.run_rounds(40 * W)
    assert state_of(network) == state_of(hooks)


@POLICIES
def test_restore_drops_pending_edits(policy):
    network, hooks = twins(policy, 40, 3, "PCG64", seed=2, warm=True)
    network.advance_rounds(25)
    hooks.run_rounds(25)
    state = network.state
    index = state._in_refs
    assert pending_edits(index) and index._reset
    state.restore_state(state.dump_state())
    assert state._in_refs is None
    fresh = state._ensure_in_refs()
    assert fresh is not index
    assert not fresh.deferred_rows() and not pending_edits(fresh)
    # The snapshot is row-major, so the sets are compared as sets.
    assert state_of(network, False) == state_of(hooks, False)
    state.check_invariants()


@POLICIES
def test_deaths_and_a_birth_batch_leave_nothing_pending(policy):
    """Each death builds its row, which consumes that row's segments and
    reset mark, so once every node has died nothing is pending; the
    whole-population birth batch that follows drops the index."""
    network, _ = twins(policy, 40, 3, "PCG64", seed=4, warm=True)
    network.advance_rounds(25)
    state = network.state
    index = state._in_refs
    assert pending_edits(index) and index._reset
    # Dying in row order frees the rows in ascending order, so the
    # batch below takes ascending rows and drops the index.
    for u in sorted(state.alive_ids(), key=state.row_for):
        state.remove_node(u, death_time=network.now)
        assert state.row_if_alive(u) is None
    assert not index.deferred_rows()
    ids = [state.allocate_id() for _ in range(10)]
    targets = np.array([[-1] * 3] + [[ids[0], -1, -1]] * 9, dtype=np.int64)
    state.apply_birth_slots(ids, network.now, targets)
    assert state._in_refs is None
    fresh = state._ensure_in_refs()
    assert not fresh.deferred_rows() and not pending_edits(fresh)
    assert fresh[state.row_for(ids[0])] == {(u, 0) for u in ids[1:]}
    state.check_invariants()
