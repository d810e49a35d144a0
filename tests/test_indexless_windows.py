"""Exact windows that start without a reverse index.

``ArraySlotBackend.apply_exact_rounds`` reads a dying node's orphans
from the reverse index when one exists.  Without it, it takes them from
in-lists of keys (``source id · width + slot``) that it makes at its
start in one pass over the slot matrix, or takes from the previous
window when nothing has mutated since.  The reverse index is a cache
that only readers build.  These tests check that a window starting without it
(after a fused window, a whole-population ``fast_warm`` batch or a
restore) builds none and leaves what the hook loop leaves; that a window
on a partly built index keeps every row exact; that every writer leaves
an absent index absent; and that a write between windows makes the next
window list again.  Only NumPy and pytest are needed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.core.in_slots import ReverseIndex
from repro.models.streaming import StreamingNetwork
from tests.test_exact_windows import POLICIES, plain, records


@pytest.fixture
def builds(monkeypatch) -> list[ReverseIndex]:
    """Every reverse index built while the test runs."""
    made: list[ReverseIndex] = []
    init = ReverseIndex.__init__

    def counting_init(self, slots, id_of):
        init(self, slots, id_of)
        made.append(self)

    monkeypatch.setattr(ReverseIndex, "__init__", counting_init)
    return made


def twins(policy: str, n: int, d: int, fast_warm: bool = False):
    """The exact kernel's network and the hook loop's, equally seeded."""
    networks = []
    for make in POLICIES[policy]:
        network = StreamingNetwork(n, make(d), seed=n * 10 + d, fast_warm=fast_warm)
        network.state.track_mutations()
        networks.append(network)
    return networks


def bare_state(network: StreamingNetwork) -> dict:
    """The network's state, read without building its reverse index."""
    state = network.state
    return {
        "round": network.round_number,
        "dump": {
            key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in state.dump_state().items()
        },
        "in_count": state._in_count.tolist(),
        "touched": sorted(state.drain_touched()),
        "rng": plain(network.rng.bit_generator.state),
    }


def eager_rows(state: ArraySlotBackend) -> list[set]:
    """Every used row of a reverse index rebuilt from a copy of *state*."""
    copy = ArraySlotBackend()
    copy.restore_state(state.dump_state())
    index = copy._ensure_in_refs()
    return [set(index[row]) for row in range(copy._high)]


def rows(state: ArraySlotBackend) -> list[set]:
    """Every used row of *state*'s own index, or of an eager rebuild."""
    index = state._in_refs
    if index is None:
        return eager_rows(state)
    return [set(index[row]) for row in range(state._high)]


def start_without_index(policy: str, n: int, d: int, start: str):
    kernel, hooks = twins(policy, n, d, fast_warm=start == "fast_warm")
    if start == "fused":
        kernel.advance_rounds(n + 3)
        hooks.run_rounds(n + 3)
    elif start == "restore":
        kernel.run_rounds(3)
        hooks.run_rounds(3)
        kernel.state.neighbors(max(kernel.state.alive_ids()))
        assert kernel.state._in_refs is not None
        kernel.state.restore_state(kernel.state.dump_state())
        kernel.state.track_mutations()
    assert kernel.state._in_refs is None
    kernel.state.drain_touched()
    hooks.state.drain_touched()
    return kernel, hooks


@pytest.mark.parametrize("start", ["fused", "fast_warm", "restore"])
@pytest.mark.parametrize("W", ["1", "7", "n", "n+5"])
@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [2, 3, 5, 40, 300])
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_windows_without_an_index_replay_the_hook_loop(
    builds, policy, n, d, W, start
):
    """A window of W rounds, then windows of 1 and W rounds, each
    starting without an index: none builds one, and after each the
    records and state are the hook loop's."""
    size = {"1": 1, "7": 7, "n": n, "n+5": n + 5}[W]
    kernel, hooks = start_without_index(policy, n, d, start)
    for rounds in (size, 1, size):
        built = len(builds)
        ours = kernel.run_rounds(rounds)
        assert len(builds) == built
        assert kernel.state._in_refs is None
        assert records(ours) == records(hooks.run_rounds(rounds))
        assert bare_state(kernel) == bare_state(hooks)
    assert rows(kernel.state) == rows(hooks.state)


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("n", [3, 5, 40, 300])
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_partly_built_index_stays_exact(policy, n, d):
    """Windows that start on a partly built index leave every row equal,
    as a set, to an eager rebuild."""
    kernel, hooks = twins(policy, n, d)
    for step, size in enumerate((1, 7, n, n + 5)):
        kernel.advance_rounds(n + 1)  # a fused window drops the index
        hooks.run_rounds(n + 1)
        for u in sorted(kernel.state.alive_ids())[: 1 + step % (n - 1)]:
            kernel.state.neighbors(u)
        index = kernel.state._in_refs
        assert 0 < len(index) < kernel.state._high
        ours = kernel.run_rounds(size)
        assert kernel.state._in_refs is index
        assert records(ours) == records(hooks.run_rounds(size))
        assert rows(kernel.state) == eager_rows(kernel.state)
        assert bare_state(kernel) == bare_state(hooks)
    assert rows(kernel.state) == rows(hooks.state)


WRITERS = [
    "assign_slots",
    "clear_slot",
    "add_nodes",
    "apply_birth_slots",
    "place_slots_capped",
]


def write(state: ArraySlotBackend, writer: str, time: float) -> None:
    alive = sorted(state.alive_ids())
    oldest, youngest = alive[0], alive[-1]
    state.clear_slot(youngest, 0)
    if writer == "assign_slots":
        state.assign_slots([(youngest, 0)], [oldest])
    elif writer == "add_nodes":
        state.add_nodes(state.allocate_ids(2), time, 3)
    elif writer == "apply_birth_slots":
        ids = state.allocate_ids(2)
        targets = np.array([[oldest, youngest], [ids[0], oldest]])
        state.apply_birth_slots(ids, time, targets)
    elif writer == "place_slots_capped":
        state.place_slots_capped(
            [youngest], [0], 100, 4, np.random.default_rng(1)
        )


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_writers_leave_an_absent_index_absent(builds, policy, writer):
    networks = []
    for eager in (False, True):
        network, _ = twins(policy, 40, 3)
        network.advance_rounds(60)
        if eager:
            network.state.check_invariants()  # builds every row
        built = len(builds)
        write(network.state, writer, network.now)
        assert len(builds) == built
        assert (network.state._in_refs is None) is not eager
        networks.append(network)
    lazy, eager = networks
    assert rows(lazy.state) == rows(eager.state)
    assert bare_state(lazy) == bare_state(eager)
    lazy.state.check_invariants()


@pytest.mark.parametrize("policy", ["regen", "none"], ids=["SDGR", "SDG"])
def test_a_write_between_windows_lists_again(policy):
    """Keys a window kept for later deaths are dropped when anything
    mutates before the next window: here each round clears a slot that
    points at the next node to die."""
    kernel, hooks = start_without_index(policy, 40, 3, "fused")
    for _ in range(12):
        assert records([kernel.advance_round()]) == records(
            [hooks.advance_round()]
        )
        oldest = min(kernel.state.alive_ids())
        pointing = [
            (u, j)
            for u in sorted(kernel.state.alive_ids())
            for j, t in enumerate(kernel.state.out_slots_of(u))
            if t == oldest
        ]
        for network in (kernel, hooks):
            for u, j in pointing[:1]:
                network.state.clear_slot(u, j)
    assert kernel.state._in_refs is None
    assert bare_state(kernel) == bare_state(hooks)
    assert rows(kernel.state) == rows(hooks.state)
