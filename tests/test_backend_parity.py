"""Oracle parity: the array backend and the dict oracle
(``tests/oracles/dict_backend.py``) must produce identical seeded
trajectories.

Both backends keep the alive set in the same IndexedSet structure and
sample through it, so a seeded run consumes the RNG identically — every
snapshot, degree vector, and flooding trajectory must match *exactly*
(not just statistically).  These tests drive both backends through the
same churn traces (streaming and Poisson, with and without regeneration)
and assert bit-identical outcomes; they are the safety net that lets the
array backend's vectorized reads replace the oracle's loops.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.array_backend import ArraySlotBackend
from repro.core.edge_policy import (
    CappedRegenerationPolicy,
    NoRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.errors import SimulationError
from repro.flooding.discrete import flood_discrete
from repro.flooding.discretized import flood_discretized
from repro.models.adversarial import AdversarialStreamingNetwork
from repro.models.poisson import PDG, PDGR
from repro.models.streaming import SDG, SDGR
from tests.oracles.dict_backend import DictBackend, flood_discrete_reference


def both_backends(factory):
    """Build the same seeded network on the oracle and the array backend."""
    return factory(backend=DictBackend()), factory(backend=ArraySlotBackend())


def assert_states_identical(a, b):
    """Snapshots, degrees, and derived queries agree exactly."""
    sa = a.state.snapshot(a.now)
    sb = b.state.snapshot(b.now)
    assert sa.to_dict() == sb.to_dict()
    assert a.state.alive_ids() == b.state.alive_ids()
    assert np.array_equal(a.state.degree_vector(), b.state.degree_vector())
    assert a.state.num_edges() == b.state.num_edges()
    for u in a.state.alive_ids():
        assert set(a.state.neighbors(u)) == set(b.state.neighbors(u))
        assert a.state.in_slot_count(u) == b.state.in_slot_count(u)
        assert a.state.out_slots_of(u) == b.state.out_slots_of(u)
        assert a.state.birth_time(u) == b.state.birth_time(u)
    a.state.check_invariants()
    b.state.check_invariants()


def fast_warm(model):
    """*model* with ``fast_warm=True``: its warm-up draws each birth
    batch in one call, a stream that must match across backends too."""
    return pytest.param(
        partial(model, fast_warm=True), id=f"{model.__name__}-fast_warm"
    )


@pytest.mark.parametrize("model", [SDG, SDGR, fast_warm(SDG), fast_warm(SDGR)])
@pytest.mark.parametrize("seed", [0, 7])
def test_streaming_trace_parity(model, seed):
    a, b = both_backends(lambda backend: model(n=40, d=3, seed=seed, backend=backend))
    assert_states_identical(a, b)
    for _ in range(60):
        ra = a.advance_round()
        rb = b.advance_round()
        assert ra.births == rb.births and ra.deaths == rb.deaths
    assert_states_identical(a, b)


@pytest.mark.parametrize("model", [PDG, PDGR, fast_warm(PDG), fast_warm(PDGR)])
def test_poisson_trace_parity(model):
    a, b = both_backends(lambda backend: model(n=50, d=4, seed=11, backend=backend))
    assert_states_identical(a, b)
    for _ in range(30):
        ra = a.advance_round()
        rb = b.advance_round()
        assert [e.node_id for e in ra.events] == [e.node_id for e in rb.events]
    assert_states_identical(a, b)


def test_adversarial_trace_parity():
    a, b = both_backends(
        lambda backend: AdversarialStreamingNetwork(
            n=30,
            policy=RegenerationPolicy(3),
            strategy="max_degree",
            seed=5,
            backend=backend,
        )
    )
    for _ in range(40):
        a.advance_round()
        b.advance_round()
    assert_states_identical(a, b)


@pytest.mark.parametrize(
    "model,flood,reference",
    [
        (SDGR, flood_discrete, flood_discrete_reference),
        (SDG, flood_discrete, flood_discrete_reference),
        (PDGR, flood_discretized, flood_discretized),
    ],
    ids=["SDGR-flood_discrete", "SDG-flood_discrete", "PDGR-flood_discretized"],
)
def test_flooding_trajectory_parity(model, flood, reference):
    """The vectorized mask frontier computes the same informed set as the
    reference set frontier on the oracle, round for round."""
    a, b = both_backends(lambda backend: model(n=60, d=4, seed=3, backend=backend))
    ra = reference(a, max_rounds=150)
    rb = flood(b, max_rounds=150)
    assert ra.informed_sizes == rb.informed_sizes
    assert ra.network_sizes == rb.network_sizes
    assert ra.completed == rb.completed
    assert ra.completion_round == rb.completion_round
    assert ra.extinct == rb.extinct
    assert_states_identical(a, b)


@pytest.mark.parametrize(
    "make_policy",
    [
        lambda: CappedRegenerationPolicy(3, max_in_degree=4),
        lambda: RAESPolicy(3, c=2),
    ],
    ids=["capped", "raes"],
)
def test_bounded_policy_trace_parity(make_policy):
    """Seeded bounded-degree (capped/RAES) per-event trajectories are
    bit-identical across backends — the rejection loop consumes the RNG
    through the shared IndexedSet on both."""
    from repro.models.streaming import StreamingNetwork

    a, b = both_backends(
        lambda backend: StreamingNetwork(
            n=35, policy=make_policy(), seed=13, backend=backend
        )
    )
    assert_states_identical(a, b)
    for _ in range(70):
        ra = a.advance_round()
        rb = b.advance_round()
        assert ra.births == rb.births and ra.deaths == rb.deaths
    assert_states_identical(a, b)
    cap = a.policy.max_in_degree
    for u in a.state.alive_ids():
        assert a.state.in_slot_count(u) <= cap


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=25),
    d=st.integers(min_value=1, max_value=4),
    raes=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    extra_rounds=st.integers(min_value=0, max_value=40),
)
def test_property_bounded_parity_and_cap(n, d, raes, seed, extra_rounds):
    """Property: under heavy streaming churn, bounded-degree runs are
    backend-identical and never exceed the in-degree cap (the dict-parity
    invariant suite: check_invariants also cross-checks the array
    backend's dense _in_count against its reverse-ref sets)."""
    from repro.models.streaming import StreamingNetwork

    def make_policy():
        return RAESPolicy(d, c=2) if raes else CappedRegenerationPolicy(
            d, max_in_degree=2 * d
        )

    a, b = both_backends(
        lambda backend: StreamingNetwork(
            n=n, policy=make_policy(), seed=seed, backend=backend
        )
    )
    for _ in range(extra_rounds):
        a.advance_round()
        b.advance_round()
    assert_states_identical(a, b)
    cap = 2 * d
    for u in a.state.alive_ids():
        assert a.state.in_slot_count(u) <= cap
        assert b.state.in_slot_count(u) <= cap


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=40),
    d=st.integers(min_value=1, max_value=4),
    raes=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_bounded_batched_cap(n, d, raes, seed):
    """Property: the bulk accept/reject path (batched births + batched
    death repair) never exceeds the cap, and _in_count stays consistent
    with the reverse refs (check_invariants)."""
    rng = np.random.default_rng(seed)
    policy = (
        RAESPolicy(d, c=2) if raes else CappedRegenerationPolicy(d, 2 * d)
    )
    state = ArraySlotBackend(initial_capacity=2, slot_width=1)
    policy.handle_births(state, state.allocate_ids(n), 0.0, rng)
    state.check_invariants()
    victims = [u for u in state.alive_ids() if u % 3 == 0][: n - 2]
    if victims:
        policy.handle_deaths(state, victims, 1.0, rng)
    state.check_invariants()
    policy.handle_births(state, state.allocate_ids(5), 2.0, rng)
    state.check_invariants()
    cap = 2 * d
    for u in state.alive_ids():
        assert state.in_slot_count(u) <= cap


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=25),
    d=st.integers(min_value=1, max_value=5),
    regen=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    extra_rounds=st.integers(min_value=0, max_value=40),
)
def test_property_streaming_parity(n, d, regen, seed, extra_rounds):
    """Property: any seeded streaming trace is backend-independent."""
    model = SDGR if regen else SDG
    a, b = both_backends(lambda backend: model(n=n, d=d, seed=seed, backend=backend))
    for _ in range(extra_rounds):
        a.advance_round()
        b.advance_round()
    assert_states_identical(a, b)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=20),
    d=st.integers(min_value=1, max_value=4),
    regen=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_poisson_parity(n, d, regen, seed):
    """Property: any seeded Poisson jump-chain trace is backend-independent."""
    model = PDGR if regen else PDG
    a, b = both_backends(
        lambda backend: model(n=n, d=d, seed=seed, warm_time=0.0, backend=backend)
    )
    a.advance_rounds_jump(4 * n)
    b.advance_rounds_jump(4 * n)
    assert_states_identical(a, b)


def test_policy_parity_through_raw_backends():
    """Driving bare backends through one policy gives identical traces."""
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    pa, pb = RegenerationPolicy(3), RegenerationPolicy(3)
    a, b = DictBackend(), ArraySlotBackend(initial_capacity=2, slot_width=1)
    for _ in range(25):
        pa.handle_birth(a, a.allocate_id(), 0.0, rng_a)
        pb.handle_birth(b, b.allocate_id(), 0.0, rng_b)
    kill_a = np.random.default_rng(9)
    kill_b = np.random.default_rng(9)
    for t in range(15):
        pa.handle_death(a, a.sample_alive(kill_a), float(t), rng_a)
        pb.handle_death(b, b.sample_alive(kill_b), float(t), rng_b)
        pa.handle_birth(a, a.allocate_id(), float(t), rng_a)
        pb.handle_birth(b, b.allocate_id(), float(t), rng_b)
    assert a.snapshot(99.0).to_dict() == b.snapshot(99.0).to_dict()
    a.check_invariants()
    b.check_invariants()


def test_no_regen_policy_parity_with_deaths():
    """SDG-style orphan loss (slots stay empty) matches across backends."""
    rng_a = np.random.default_rng(4)
    rng_b = np.random.default_rng(4)
    pa, pb = NoRegenerationPolicy(2), NoRegenerationPolicy(2)
    a, b = DictBackend(), ArraySlotBackend(initial_capacity=1, slot_width=2)
    for _ in range(12):
        pa.handle_birth(a, a.allocate_id(), 0.0, rng_a)
        pb.handle_birth(b, b.allocate_id(), 0.0, rng_b)
    for victim in (3, 7, 0):
        pa.handle_death(a, victim, 1.0, rng_a)
        pb.handle_death(b, victim, 1.0, rng_b)
    assert a.snapshot(2.0).to_dict() == b.snapshot(2.0).to_dict()
    a.check_invariants()
    b.check_invariants()


def _four_node_state(backend_cls):
    """Nodes 0..3 with two empty slots each; node 4 was born and died."""
    state = backend_cls()
    for node_id in range(5):
        state.add_node(node_id, birth_time=0.0, num_slots=2)
    state.remove_node(4, death_time=0.0)
    state.assign_slot(0, 0, 1)
    return state


#: (pair, target) of each invalid request: slot out of range, slot
#: already assigned, self-loop, dead target.
INVALID_REQUESTS = {
    "slot-range": ((2, 2), 3),
    "assigned": ((0, 0), 2),
    "self-loop": ((2, 0), 2),
    "dead-target": ((2, 0), 4),
}


@pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
@pytest.mark.parametrize("case", sorted(INVALID_REQUESTS))
def test_assign_slots_fails_like_assign_slot(backend_cls, case):
    """``assign_slots`` raises ``assign_slot``'s error at the bad pair,
    with the pairs before it applied and counted in the epoch."""
    pair, target = INVALID_REQUESTS[case]
    single = _four_node_state(backend_cls)
    with pytest.raises((IndexError, SimulationError)) as one:
        single.assign_slot(*pair, target)
    batched = _four_node_state(backend_cls)
    epoch = batched.mutation_epoch()
    with pytest.raises(type(one.value)) as many:
        batched.assign_slots([(1, 0), pair, (3, 0)], [0, target, 0])
    assert str(many.value) == str(one.value)
    assert batched.mutation_epoch() == epoch + 1
    assert batched.out_slots_of(1) == [0, None]
    assert batched.out_slots_of(3) == [None, None]
    batched.check_invariants()


@pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
def test_assign_slots_counts_one_epoch_per_slot(backend_cls):
    state = _four_node_state(backend_cls)
    state.track_mutations()
    state.drain_touched()
    epoch = state.mutation_epoch()
    state.assign_slots([(1, 0), (1, 1), (3, 1)], [0, 2, 1])
    assert state.mutation_epoch() == epoch + 3
    assert state.drain_touched() == {0, 1, 2, 3}
    assert state.out_slots_of(1) == [0, 2]
    assert state.in_slot_count(1) == 2
    state.assign_slots([], [])
    assert state.mutation_epoch() == epoch + 3
    state.check_invariants()


@pytest.mark.parametrize("model", [SDG, SDGR, PDG, PDGR])
def test_mutation_tracking_parity(model):
    """With tracking on, both backends report the same touched ids each
    round and end on the same mutation epoch (the array backend builds
    its touched lists only while tracking, without changing the count)."""
    a, b = both_backends(lambda backend: model(n=40, d=3, seed=21, backend=backend))
    for net in (a, b):
        net.state.track_mutations()
    for _ in range(60):
        a.advance_round()
        b.advance_round()
        assert a.state.drain_touched() == b.state.drain_touched()
    assert a.state.mutation_epoch() == b.state.mutation_epoch()
    assert_states_identical(a, b)
