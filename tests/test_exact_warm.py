"""The exact warm-up: golden digests, birth hooks and epoch counts.

Every streaming-cadence session starts with Definition 3.2's ``n`` pure
births (``N_0 = ∅``).  The per-event warm-up (``fast_warm=False``) must
leave exactly the state a loop of ``EdgePolicy.handle_birth`` calls
leaves — however the driver applies it.  Each trajectory digest hashes,
right after warm-up: the alive order and every out-slot, every
``in_slot_count``, the backend's ``mutation_epoch`` and the RNG state;
then the event records of the first 10 per-event rounds.  The checkpoint
payload at the same point is pinned in its own table, keyed the same
way, so a change to the checkpoint format moves only the payload pins.

The trajectories were first pinned with the per-birth warm-up loop (one
``handle_birth`` call per round), so the digests pin the batch to it;
the two tables were split out of those combined digests on a tree that
still matched them.  A second pair of tables pins the fast streams
(``fast_warm``, ``fast_rounds``) on the array backend and checks their
epoch against the dict oracle's (``tests/oracles/dict_backend.py``).
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

#: (churn, policy, backend, n, d) -> sha256 of the warm-state transcript
#: (:func:`session_transcript`).
GOLDEN = {
    ("streaming", "none", "array", 2000, 8): (
        "f6a77bcda536e8f294a1bedc8522db87"
        "f0dac33721454ab2518fde7731afc8f8"
    ),
    ("streaming", "none", "dict", 2000, 8): (
        "f6a77bcda536e8f294a1bedc8522db87"
        "f0dac33721454ab2518fde7731afc8f8"
    ),
    ("streaming", "regen", "array", 2000, 8): (
        "4e00a479949f0b627e5aa818e996bdd0"
        "b10b79098ef381fddf532257888f43e4"
    ),
    ("streaming", "regen", "dict", 2000, 8): (
        "4e00a479949f0b627e5aa818e996bdd0"
        "b10b79098ef381fddf532257888f43e4"
    ),
    ("threshold", "capped", "array", 300, 3): (
        "0dc9fa8839fe2d8ca347e21da3f076ad"
        "379a80abe58c9dbc284455b1788c117d"
    ),
    ("threshold", "capped", "array", 300, 5): (
        "e30422af0df73e7812358df571af76a5"
        "2cdf2d2ca7907d0cab90f211553abf22"
    ),
    ("threshold", "capped", "dict", 300, 3): (
        "0dc9fa8839fe2d8ca347e21da3f076ad"
        "379a80abe58c9dbc284455b1788c117d"
    ),
    ("threshold", "capped", "dict", 300, 5): (
        "e30422af0df73e7812358df571af76a5"
        "2cdf2d2ca7907d0cab90f211553abf22"
    ),
    ("threshold", "regen", "array", 300, 3): (
        "4ffe798899bf1f10a56223bb510e142d"
        "7fd0f7085e3a687016b32f724be13a14"
    ),
    ("threshold", "regen", "array", 300, 5): (
        "fac2c956d663d7365893e1acf4401a3f"
        "c923eb989dec3b45ead712e036ee9ac1"
    ),
    ("threshold", "regen", "dict", 300, 3): (
        "4ffe798899bf1f10a56223bb510e142d"
        "7fd0f7085e3a687016b32f724be13a14"
    ),
    ("threshold", "regen", "dict", 300, 5): (
        "fac2c956d663d7365893e1acf4401a3f"
        "c923eb989dec3b45ead712e036ee9ac1"
    ),
}


#: Fast streams on the array backend: label -> (spec fields, sha256 of
#: the trajectory transcript without the epoch).  ``fast_warm`` warm-ups
#: and Poisson ``fast_rounds`` sessions draw every pure-birth batch in one
#: call; these streams were first pinned with the array backend's earlier
#: batch implementation, so they pin the one batch path to it.  Streaming
#: ``fast_rounds`` sessions (the ``sdg-``/``sdgr-cold-fast-rounds`` cases;
#: ``warm=False``, so their first n rounds are the exact warm prefix, and
#: the ``-steady`` ones run on into fused steady-state windows) follow the
#: per-event stream: their digests are those of the same spec without
#: ``fast_rounds`` (their payloads differ from it only in that field).
#: The epoch is compared with the dict backend's instead, which counts
#: like the per-birth loop.
FAST_GOLDEN = {
    "pdgr-fast-rounds": (
        {"churn": "poisson", "n": 300, "d": 4, "horizon": 40,
         "fast_rounds": True},
        (
            "162018fd88f19e655eb12913342ce31a"
            "277976a744d7fc6d938cac287664d394"
        ),
    ),
    "pdgr-fast-warm": (
        {"churn": "poisson", "n": 300, "d": 4,
         "churn_params": {"fast_warm": True}},
        (
            "faf810ac338b0aa1664f2ef3f2eb179d"
            "3c96510ddca3d195f560cabe56c6ef03"
        ),
    ),
    "sdg-fast-warm": (
        {"policy": "none", "n": 2000, "d": 8,
         "churn_params": {"fast_warm": True}},
        (
            "4bcc1f371f69dd10b77dbbbdf00676ab"
            "7eb7e5df9a1ca9a72bab7d9c3cc811cf"
        ),
    ),
    "sdgr-fast-warm": (
        {"n": 2000, "d": 8, "churn_params": {"fast_warm": True}},
        (
            "11798b6818853ce21409d335978aaa53"
            "b1346c29bfc9aabd7174f6a372ad1053"
        ),
    ),
    "sdgr-fast-warm-n3": (
        {"n": 3, "d": 4, "churn_params": {"fast_warm": True}},
        (
            "ad10c1f227a6724be8aa963534bc8ef0"
            "197890b299465567d612c3265fd09fe8"
        ),
    ),
    "sdg-cold-fast-rounds-steady": (
        {"policy": "none", "n": 200, "d": 4, "horizon": 350,
         "fast_rounds": True, "churn_params": {"warm": False}},
        (
            "4ffc0c0f3210827b6cccfe8f2437d592"
            "76d6bb86cb584b57393772c63fbaef8d"
        ),
    ),
    "sdgr-cold-fast-rounds": (
        {"n": 300, "d": 4, "horizon": 250, "fast_rounds": True,
         "churn_params": {"warm": False}},
        (
            "b7bac3e00f18747e578e5c4fda100ecf"
            "fe7084f546f5fc44778b1c1f09eaf1be"
        ),
    ),
    "sdgr-cold-fast-rounds-steady": (
        {"n": 200, "d": 4, "horizon": 350, "fast_rounds": True,
         "churn_params": {"warm": False}},
        (
            "2d0915a5e03d42317137bfdb31e21a9a"
            "35ce3cd9f8f258631919736d8c03a114"
        ),
    ),
    "tsdg-fast-rounds": (
        {"churn": "threshold", "policy": "none", "n": 300, "d": 4,
         "horizon": 60, "fast_rounds": True},
        (
            "d3b6b57973d4f239b977723bbdd45c75"
            "8d413cf1663242675f723f58ac621eeb"
        ),
    ),
    "tsdg-fast-warm": (
        {"churn": "threshold", "policy": "none", "n": 300, "d": 4,
         "churn_params": {"fast_warm": True}},
        (
            "5885cc2331a618da3d1e2626fb3f9ef0"
            "501f2bdd3d182175cf209daeb9fb4b44"
        ),
    ),
}


#: The same keys -> sha256 of the canonical checkpoint payload right after
#: warm-up (spec backend set to the key's backend).
PAYLOAD_GOLDEN = {
    ("streaming", "none", "array", 2000, 8): (
        "d3f834d7a8598e050b1688b2ff3304e2"
        "5feacbbb1e6f057e94dd159d3177072b"
    ),
    ("streaming", "none", "dict", 2000, 8): (
        "ae21d8448ba5f4ae3329142844ea78ce"
        "804abe3fe04e8427f0abe2682bf41502"
    ),
    ("streaming", "regen", "array", 2000, 8): (
        "d2d07a78d29099c2edf3baeda80d185e"
        "a68f1d6409217bdbbf556790d3c19ceb"
    ),
    ("streaming", "regen", "dict", 2000, 8): (
        "2d314d688eba122d8b941c03ce2eb629"
        "34eb88df683c482567bbb8c163a8d7a7"
    ),
    ("threshold", "capped", "array", 300, 3): (
        "e9df7ea9c02e3f6dee628b035500633f"
        "9400ab6ad8cf940730358d26fb37a6b8"
    ),
    ("threshold", "capped", "array", 300, 5): (
        "600d20df788c1e5355ebd81ca6dcd5a4"
        "5c514414ba45a265dfd421f30394a01a"
    ),
    ("threshold", "capped", "dict", 300, 3): (
        "59362cce51c78fe95f18c7d1b3ee0974"
        "516fcdbf486a02573f1499aeccf3436f"
    ),
    ("threshold", "capped", "dict", 300, 5): (
        "1a6d3ceb6a06baea6bb4313e5953fe2c"
        "ec9e9fc3170d719b7b45dbb217b4036e"
    ),
    ("threshold", "regen", "array", 300, 3): (
        "f48d4a39aad4ab2c4fc518adb1702574"
        "1cbaf48b6ccfe8fe9a984ca90c19d6db"
    ),
    ("threshold", "regen", "array", 300, 5): (
        "b89adaa72721cc8d6f6bfde20ad18279"
        "3589710e17eb707a3d76404c225a77dc"
    ),
    ("threshold", "regen", "dict", 300, 3): (
        "28d533132561a79cdcdea56e7c30c5b1"
        "f4ddaa1ea3091c2a94d278e8e73f1077"
    ),
    ("threshold", "regen", "dict", 300, 5): (
        "91eb3fec2186bccd842a543b170016f0"
        "9f7a759da956daf5d965626294f84a28"
    ),
}


#: The same labels -> sha256 of the canonical checkpoint payload after the
#: session's run, without the mutation epoch.
FAST_PAYLOAD_GOLDEN = {
    "pdgr-fast-rounds": (
        "e613a995e8f2a3e77143bca3777bd5ca"
        "d77839203cdec17651c108475f7b60ae"
    ),
    "pdgr-fast-warm": (
        "664b4b4ff01016647de65d39381a1b06"
        "6c71a44768939572f3c3b8d8b42a2a46"
    ),
    "sdg-cold-fast-rounds-steady": (
        "8ff6844d9d8a725bf3eb9813f56d0878"
        "f6cbe485bcbb4a9f619369d922f0d6a8"
    ),
    "sdg-fast-warm": (
        "797cb40ac4f6658570d902a9609f8749"
        "ae2483eee6246ef6c94b3591fd5ba8e4"
    ),
    "sdgr-cold-fast-rounds": (
        "4d626b5f876d854679e5203f09bf0926"
        "6a4a88add49d1e616ed194ae85c20c76"
    ),
    "sdgr-cold-fast-rounds-steady": (
        "148e1b40b29caeb3282958d69612c199"
        "c80d94f76b0f11641a25df70f153bcd8"
    ),
    "sdgr-fast-warm": (
        "fe3e64d8fa5b34c10d0ca9b55063a3b1"
        "bd9cbbc685921e1cf69f4b47568dfefa"
    ),
    "sdgr-fast-warm-n3": (
        "53d67ad2b3411f888e1d623c5077ac6b"
        "e9ed4884e5acb8b67b056bc75cbe26c9"
    ),
    "tsdg-fast-rounds": (
        "8ab3d2a80ea640867212e6a11b2da85a"
        "45536e57e70921f83f1af7c3e08441d3"
    ),
    "tsdg-fast-warm": (
        "354e5cd135a218db3d1d6815469feb4c"
        "d5d6efedd4990729001a0e84de009783"
    ),
}


def warm_session(
    churn: str, policy: str, backend: str, n: int, d: int, monkeypatch
) -> Simulation:
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
    return Simulation(spec)


def session_transcript(sim: Simulation, epoch: bool = True) -> dict:
    """The state of *sim* now, then 10 per-event rounds' records; with
    ``epoch=False`` the mutation epoch is left out."""
    network = sim.network
    state = network.state
    alive = state.alive_ids()
    warm = {
        "alive": alive,
        "slots": [state.out_slots_of(u) for u in alive],
        "in_counts": [state.in_slot_count(u) for u in alive],
        "epoch": state.mutation_epoch(),
        "rng": network.rng.bit_generator.state,
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


def payload_digest(
    sim: Simulation, epoch: bool = True, backend: str | None = None
) -> str:
    """sha256 of *sim*'s canonical checkpoint payload now; with
    ``epoch=False`` the backend's mutation epoch is left out.  *backend*
    is written into the payload's spec (an oracle session's spec cannot
    name the backend it runs on)."""
    checkpoint = encode_value(build_payload(sim))
    if backend is not None:
        checkpoint["spec"]["backend"] = backend
    if not epoch:
        del checkpoint["backend"]["mutation_epoch"]
    payload = json.dumps(checkpoint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def digest(transcript: dict) -> str:
    blob = json.dumps(transcript, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("churn,policy,backend,n,d", sorted(GOLDEN))
def test_warm_state_matches_golden_digest(
    churn, policy, backend, n, d, monkeypatch
):
    sim = warm_session(churn, policy, backend, n, d, monkeypatch)
    assert digest(session_transcript(sim)) == GOLDEN[(churn, policy, backend, n, d)]


@pytest.mark.parametrize("churn,policy,backend,n,d", sorted(PAYLOAD_GOLDEN))
def test_warm_checkpoint_payload_matches_golden_digest(
    churn, policy, backend, n, d, monkeypatch
):
    sim = warm_session(churn, policy, backend, n, d, monkeypatch)
    expected = PAYLOAD_GOLDEN[(churn, policy, backend, n, d)]
    assert payload_digest(sim, backend=backend) == expected


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


@pytest.mark.parametrize("label", sorted(FAST_PAYLOAD_GOLDEN))
def test_array_fast_checkpoint_payload_matches_golden_digest(label):
    fields, _ = FAST_GOLDEN[label]
    sim = fast_session(fields)
    assert payload_digest(sim, epoch=False) == FAST_PAYLOAD_GOLDEN[label]


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
    """A fused session's warm prefix (``warm=False``, one exact birth
    batch through ``apply_birth_slots``) counts the epoch like the dict
    oracle's per-slot loop; the epoch is written into checkpoints."""
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
