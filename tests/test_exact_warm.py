"""The exact warm-up: golden digests, birth hooks and epoch counts.

Every streaming-cadence session starts with Definition 3.2's ``n`` pure
births (``N_0 = ∅``).  The per-event warm-up (``fast_warm=False``) must
leave exactly the state a loop of ``EdgePolicy.handle_birth`` calls
leaves — however the driver applies it.  Each digest hashes, right after
warm-up: the alive order and every out-slot, every ``in_slot_count``, the
backend's ``mutation_epoch``, the RNG state and a full checkpoint
payload; then the event records of the first 10 per-event rounds.

The digests were computed with the per-birth warm-up loop (one
``handle_birth`` call per round), so they pin the batch to it.  A
second table pins the fast streams (``fast_warm``, ``fast_rounds``) on
the array backend and checks their epoch against the dict oracle's
(``tests/oracles/dict_backend.py``).
The other tests pin what that batch relies on: a policy overriding the
birth hook still runs it once per birth, and ``apply_birth_slots``
counts the epoch like the loop of ``add_node`` + ``assign_slots`` it
replaces, on both backends.  The "dict" cases run on the oracle.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.core.edge_policy import (
    CappedRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.errors import SimulationError
from repro.models.streaming import StreamingNetwork
from repro.models.threshold import ThresholdStreamingNetwork
from repro.scenario import ScenarioSpec, Simulation
from repro.service.checkpoint import build_payload, encode_value
from tests.oracles.dict_backend import (
    BACKENDS,
    DictBackend,
    build_drivers_on_oracle,
)

_CAPPED = {"max_in_degree": 5, "max_attempts": 4}

#: (churn, policy, backend, n, d) -> sha256 of the warm-state transcript.
GOLDEN = {
    ("streaming", "none", "array", 2000, 8): (
        "36afb96fae1d794665515e606d054a83"
        "964117af672fcf6f0189b238bf25ade5"
    ),
    ("streaming", "none", "dict", 2000, 8): (
        "d7fd22a26a36055812c1525391c59f1f"
        "72622c82c9c3a08ba810aea6f777046b"
    ),
    ("streaming", "regen", "array", 2000, 8): (
        "306335e358bf93585e79fcf49408019b"
        "1f2d4a292e065a9c2db6ff0c1e2558f0"
    ),
    ("streaming", "regen", "dict", 2000, 8): (
        "d00912f6dd0344e73f3a39b701feef5b"
        "ef42f5178d87aaa5b335991a0e8d9bf2"
    ),
    ("threshold", "capped", "array", 300, 3): (
        "4f565fff0a828ad8393eac006832f4a6"
        "7832bec5580b02236bf0c094830e2de2"
    ),
    ("threshold", "capped", "array", 300, 5): (
        "aa4a562c96f162fe669943fca03d7207"
        "cbe33aec3ee1f5ca56eded738f4a3d5f"
    ),
    ("threshold", "capped", "dict", 300, 3): (
        "6787f9584a36cc548e9a0f1b1dd98f52"
        "b0b55194a9bda7d224a28dbf850aacdd"
    ),
    ("threshold", "capped", "dict", 300, 5): (
        "9267be6a96713c56372399843281d139"
        "ff2200e29d82be9dc2cca3710ee14892"
    ),
    ("threshold", "regen", "array", 300, 3): (
        "4e383e7bc178e1196dc62f7298118bf7"
        "948283f3b77c656cacb34814b5262b04"
    ),
    ("threshold", "regen", "array", 300, 5): (
        "20fc7030ddfbc63c8c740cf188935ffa"
        "016cc62e3b962e3a0adf5876c7b81e92"
    ),
    ("threshold", "regen", "dict", 300, 3): (
        "07f2a318f986d06abed6aaf07f4fadbf"
        "7ccc51b7cfb54b437a1c31b10d99d719"
    ),
    ("threshold", "regen", "dict", 300, 5): (
        "a0c8fcbe30b660261b56df8b965b7c1e"
        "a5b3cfeb526eb5f7492ebc5180966898"
    ),
}


#: Fast streams on the array backend: label -> (spec fields, sha256 of
#: the transcript without the epoch).  ``fast_warm`` warm-ups and
#: ``fast_rounds`` sessions (the fused warm prefix of ``warm=False``
#: included) draw every pure-birth batch in one call; these digests were
#: computed with the array backend's earlier batch implementation, so
#: they pin the one batch path to it.  The two ``-steady`` cases run past
#: the warm prefix into fused steady-state windows (horizon > n); their
#: digests were computed before ``apply_round_batch`` counted the epoch
#: like the dict backend, so they pin that count's fix to the old stream.
#: The epoch is compared with the dict backend's instead, which counts
#: like the per-birth loop.
FAST_GOLDEN = {
    "pdgr-fast-rounds": (
        {"churn": "poisson", "n": 300, "d": 4, "horizon": 40,
         "fast_rounds": True},
        (
            "6d286790a26fd37368c8e82f203b83f4"
            "5f0c4cc2e8f26cbc0f16f7beeb2bed4a"
        ),
    ),
    "pdgr-fast-warm": (
        {"churn": "poisson", "n": 300, "d": 4,
         "churn_params": {"fast_warm": True}},
        (
            "dbffe04c1990742aaf3bf315d3327525"
            "38c945b41826389bb2aef6bd06feaa1c"
        ),
    ),
    "sdg-fast-warm": (
        {"policy": "none", "n": 2000, "d": 8,
         "churn_params": {"fast_warm": True}},
        (
            "06407fd9e4001a6149b779e81e784d1c"
            "cb2faf8428792860d891d484ac89f1ba"
        ),
    ),
    "sdgr-fast-warm": (
        {"n": 2000, "d": 8, "churn_params": {"fast_warm": True}},
        (
            "71cef1aded97a6666aa2069bd12ba43c"
            "1fa1cf6c9bbde01874effc605b2f6c7c"
        ),
    ),
    "sdgr-fast-warm-n3": (
        {"n": 3, "d": 4, "churn_params": {"fast_warm": True}},
        (
            "9a52e32f76f67461a564dc967a7879d5"
            "fd673a6f2ed5149a1ef6df1fa83ff06d"
        ),
    ),
    "sdg-cold-fast-rounds-steady": (
        {"policy": "none", "n": 200, "d": 4, "horizon": 350,
         "fast_rounds": True, "churn_params": {"warm": False}},
        (
            "f5794b569fecca2748af78a2c11a2b56"
            "471bfd48d524beccea090c4e0018dbd6"
        ),
    ),
    "sdgr-cold-fast-rounds": (
        {"n": 300, "d": 4, "horizon": 250, "fast_rounds": True,
         "churn_params": {"warm": False}},
        (
            "a4bf29f1b9686506054deb2ef62a9dbe"
            "e1bd547192896753c73cfede3b436d3f"
        ),
    ),
    "sdgr-cold-fast-rounds-steady": (
        {"n": 200, "d": 4, "horizon": 350, "fast_rounds": True,
         "churn_params": {"warm": False}},
        (
            "67ab66924026077b77da07f0c0da574b"
            "2543e88b46f0c31e5ad5d7141806c036"
        ),
    ),
    "tsdg-fast-rounds": (
        {"churn": "threshold", "policy": "none", "n": 300, "d": 4,
         "horizon": 60, "fast_rounds": True},
        (
            "23074220e280efaac08ec402aa846904"
            "5c535323afdf4aa92c4cfa980585e0fc"
        ),
    ),
    "tsdg-fast-warm": (
        {"churn": "threshold", "policy": "none", "n": 300, "d": 4,
         "churn_params": {"fast_warm": True}},
        (
            "b24086cbfb90e3ce2d1bbf3bd01c16a5"
            "7d35d2e0b05d2f78bb557a90b720335b"
        ),
    ),
}


def warm_transcript(
    churn: str, policy: str, backend: str, n: int, d: int, monkeypatch
) -> dict:
    if backend == "dict":
        build_drivers_on_oracle(monkeypatch)
    spec = ScenarioSpec(
        churn=churn,
        policy=policy,
        policy_params=_CAPPED if policy == "capped" else {},
        n=n,
        d=d,
        seed=2025,
        backend="array" if backend == "array" else None,
    )
    return session_transcript(Simulation(spec), backend=backend)


def session_transcript(
    sim: Simulation, epoch: bool = True, backend: str | None = None
) -> dict:
    """The state of *sim* now, then 10 per-event rounds' records; with
    ``epoch=False`` the mutation epoch is left out of both the state and
    the checkpoint payload.  *backend* is written into the payload's spec
    (an oracle session's spec cannot name the backend it runs on)."""
    network = sim.network
    state = network.state
    alive = state.alive_ids()
    checkpoint = encode_value(build_payload(sim))
    if backend is not None:
        checkpoint["spec"]["backend"] = backend
    if not epoch:
        del checkpoint["backend"]["mutation_epoch"]
    payload = json.dumps(checkpoint, sort_keys=True, separators=(",", ":"))
    warm = {
        "alive": alive,
        "slots": [state.out_slots_of(u) for u in alive],
        "in_counts": [state.in_slot_count(u) for u in alive],
        "epoch": state.mutation_epoch(),
        "rng": network.rng.bit_generator.state,
        "checkpoint": hashlib.sha256(payload.encode()).hexdigest(),
    }
    if not epoch:
        del warm["epoch"]
    rounds = [
        [
            [
                type(event.kind).__name__,
                list(event.node_ids),
                [[e.source, e.target] for e in event.edges_created],
                [[e.source, e.target] for e in event.edges_destroyed],
            ]
            for event in report.events
        ]
        for report in network.run_rounds(10)
    ]
    return {"warm": warm, "rounds": rounds}


def digest(transcript: dict) -> str:
    blob = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("churn,policy,backend,n,d", sorted(GOLDEN))
def test_warm_state_matches_golden_digest(
    churn, policy, backend, n, d, monkeypatch
):
    transcript = warm_transcript(churn, policy, backend, n, d, monkeypatch)
    assert digest(transcript) == GOLDEN[(churn, policy, backend, n, d)]


def fast_session(fields: dict) -> Simulation:
    return Simulation(ScenarioSpec(seed=2025, backend="array", **fields)).run()


@pytest.mark.parametrize("label", sorted(FAST_GOLDEN))
def test_array_fast_stream_matches_golden_digest(label, monkeypatch):
    fields, expected = FAST_GOLDEN[label]
    array = fast_session(fields)
    epoch = array.network.state.mutation_epoch()
    assert digest(session_transcript(array, epoch=False)) == expected
    build_drivers_on_oracle(monkeypatch)
    reference = fast_session(fields).network.state
    assert isinstance(reference, DictBackend)
    assert epoch == reference.mutation_epoch()


def counting(policy_cls, *args, **kwargs):
    """*policy_cls* with a birth hook that counts its calls."""

    class Counting(policy_cls):
        births = 0

        def handle_birth(self, state, node_id, time, rng):
            self.births += 1
            return super().handle_birth(state, node_id, time, rng)

    return Counting(*args, **kwargs)


POLICIES = {
    "capped": lambda: counting(CappedRegenerationPolicy, 4, max_in_degree=6),
    "raes": lambda: counting(RAESPolicy, 4),
    "uniform": lambda: counting(RegenerationPolicy, 4),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("driver", ["streaming", "threshold"])
def test_overridden_birth_hooks_run_once_per_warm_birth(
    driver, policy, backend
):
    """Capped, RAES and any policy overriding the birth hook warm up
    through that hook, once per birth."""
    n = 60
    hooked = POLICIES[policy]()
    assert not hooked.supports_batch_birth
    if driver == "streaming":
        net = StreamingNetwork(n, hooked, seed=3, backend=BACKENDS[backend]())
    else:
        net = ThresholdStreamingNetwork(
            n, hooked, threshold=1, seed=3, backend=BACKENDS[backend]()
        )
    assert hooked.births == n
    assert net.round_number == n and net.now == n and net.num_alive() == n
    net.state.check_invariants()


def test_fused_prefix_epoch_matches_across_backends(monkeypatch):
    """A fused session's warm prefix (``warm=False``, applied through
    ``apply_birth_slots``) counts the epoch like the dict oracle's
    per-slot loop; the epoch is written into checkpoints."""
    spec = ScenarioSpec(
        churn="streaming",
        policy="regen",
        n=200,
        d=4,
        horizon=50,
        fast_rounds=True,
        churn_params={"warm": False},
        seed=7,
    )
    epochs = [Simulation(spec).run().network.state.mutation_epoch()]
    build_drivers_on_oracle(monkeypatch)
    epochs.append(Simulation(spec).run().network.state.mutation_epoch())
    assert epochs == [50 + 49 * 4] * 2


def _pure_births(backend_cls, batched):
    """Four existing nodes, then three newborns targeting old and earlier
    newborn ids; batched or as the add_node + assign_slots loop."""
    state = backend_cls()
    for node_id in range(4):
        state.add_node(node_id, birth_time=0.0, num_slots=2)
    state.remove_node(2, death_time=0.5)
    state.track_mutations()
    state.drain_touched()
    targets = np.array([[0, 3], [10, -1], [11, 10]], dtype=np.int64)
    if batched:
        state.apply_birth_slots([10, 11, 12], [1.0, 2.0, 3.0], targets)
    else:
        for k, node_id in enumerate([10, 11, 12]):
            state.add_node(node_id, birth_time=1.0 + k, num_slots=2)
            written = [t for t in targets[k].tolist() if t >= 0]
            state.assign_slots(
                [(node_id, j) for j in range(len(written))], written
            )
    return state


@pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
def test_apply_birth_slots_matches_the_per_birth_loop(backend_cls):
    batched = _pure_births(backend_cls, batched=True)
    looped = _pure_births(backend_cls, batched=False)
    assert batched.mutation_epoch() == looped.mutation_epoch()
    assert batched.drain_touched() == looped.drain_touched()
    assert batched.alive_ids() == looped.alive_ids()
    for node_id in looped.alive_ids():
        assert batched.out_slots_of(node_id) == looped.out_slots_of(node_id)
        assert batched.in_slot_count(node_id) == looped.in_slot_count(node_id)
        assert sorted(batched.neighbors(node_id)) == sorted(
            looped.neighbors(node_id)
        )
    batched.check_invariants()


@pytest.mark.parametrize("backend_cls", [DictBackend, ArraySlotBackend])
@pytest.mark.parametrize(
    "targets,message",
    [([[1], [6]], "self-loop"), ([[1], [2]], "not alive")],
)
def test_apply_birth_slots_rejects_bad_targets(backend_cls, targets, message):
    state = backend_cls()
    for node_id in range(3):
        state.add_node(node_id, birth_time=0.0, num_slots=1)
    state.remove_node(2, death_time=0.5)
    with pytest.raises(SimulationError, match=message):
        state.apply_birth_slots([5, 6], 1.0, np.array(targets))
