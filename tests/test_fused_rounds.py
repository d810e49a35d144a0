"""Fused streaming-round windows: identity, partition invariance, events.

The fused window path (`_advance_window_batched` on the streaming and
threshold drivers) executes W death→regeneration→birth rounds with one
batched backend write.  Its contract, tested here:

* **Per-event identity** (streaming) — an SDG/SDGR fused window on the
  array backend takes the per-event draws, so a seeded fused run ends
  with the topology and generator state of per-event rounds, on the
  array backend and on the dict oracle (which steps the policy hooks).
  ``tests/test_fused_windows.py`` compares the full backend state.
* **Cross-backend identity** (threshold) — the threshold driver's fused
  path is its own seeded stream, the same on both backends.
* **Partition invariance** (streaming only) — the trajectory depends
  only on the round sequence, never on how rounds are grouped into
  windows: W=1 == W=7 == one window covering everything.  This is what
  makes checkpoint-mid-window restore exact.  The threshold driver's
  fused path discards speculative draws on a failed stopping-condition
  exam, so it is deliberately *excluded* from partition tests.
* **Law parity** (threshold) — fused and per-event runs follow the same
  churn law on distinct seeded trajectories, so population trajectories
  agree in distribution.
* **Coalesced events** — a fused window emits one ``NodesDied`` and one
  ``NodesBorn`` record per chunk instead of per-round singles, and the
  flattened id lists match the per-event law exactly (streaming ids are
  deterministic: round r kills r−n−1 and births r−1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_policy import NoRegenerationPolicy, RegenerationPolicy
from repro.errors import ConfigurationError
from repro.models.streaming import SDG, SDGR
from repro.models.threshold import TSDG
from repro.sim.events import NodesBorn, NodesDied
from repro.util.rng import make_rng
from tests.oracles.dict_backend import BACKENDS


def snap_key(net):
    """A comparable, order-independent topology fingerprint."""
    snap = net.snapshot()
    return sorted(
        (node, tuple(sorted(snap.adjacency[node])), snap.out_slots[node])
        for node in snap.nodes
    )


def fused(factory, n, d, seed, rounds, backend="array", window=None):
    net = factory(n, d, seed=seed, backend=BACKENDS[backend]())
    net.advance_to_time_batched(net.now + rounds, window=window)
    return net


def per_event(factory, n, d, seed, rounds, backend="array"):
    net = factory(n, d, seed=seed, backend=BACKENDS[backend]())
    net.run_rounds(rounds)
    return net


SHAPES = [(50, 3, 120), (7, 2, 40), (3, 1, 25)]


class TestCrossBackendIdentity:
    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    @pytest.mark.parametrize("n,d,rounds", SHAPES)
    def test_fused_is_bit_identical_across_backends(
        self, factory, n, d, rounds
    ):
        """The array kernel against the oracle, which steps the hooks."""
        array_net = fused(factory, n, d, 42, rounds, backend="array")
        dict_net = fused(factory, n, d, 42, rounds, backend="dict")
        assert snap_key(array_net) == snap_key(dict_net)
        assert (
            array_net.rng.bit_generator.state == dict_net.rng.bit_generator.state
        )
        array_net.state.check_invariants()
        dict_net.state.check_invariants()

    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    def test_fused_alive_set_matches_streaming_law(self, factory):
        n, d, rounds = 50, 3, 120
        net = fused(factory, n, d, 42, rounds)
        assert net.num_alive() == n
        assert net.round_number == n + rounds
        assert sorted(net.state.alive_ids()) == list(
            range(rounds, rounds + n)
        )

    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    def test_fused_epoch_matches_across_backends(self, factory):
        """The array kernel counts the mutation epoch like the oracle's
        hooks: one per death, newborn, birth slot and regenerated slot.
        The epoch is written into checkpoints."""
        epochs = []
        for backend in ("dict", "array"):
            net = factory(200, 4, seed=3, backend=BACKENDS[backend]())
            net.advance_to_time_batched(net.now + 350, window=100)
            epochs.append(net.state.mutation_epoch())
        assert epochs[0] == epochs[1]

    def test_threshold_fused_is_bit_identical_across_backends(self):
        nets = []
        for backend in ("array", "dict"):
            net = TSDG(50, 4, seed=7, backend=BACKENDS[backend]())
            net.run_rounds(1)  # establish the first full sweep per-event
            net.advance_to_time_batched(net.now + 200)
            net.check_threshold_invariant()
            net.state.check_invariants()
            nets.append(net)
        assert snap_key(nets[0]) == snap_key(nets[1])


class TestWindowPartitionInvariance:
    """Streaming fused trajectories are pure functions of the round
    sequence: any window partition produces the identical topology."""

    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    @pytest.mark.parametrize("n,d,rounds", SHAPES)
    def test_single_round_windows_match_one_window(
        self, factory, n, d, rounds
    ):
        reference = snap_key(fused(factory, n, d, 42, rounds))
        assert snap_key(fused(factory, n, d, 42, rounds, window=1.0)) == (
            reference
        )
        assert snap_key(fused(factory, n, d, 42, rounds, window=7.0)) == (
            reference
        )

    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        splits=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    )
    def test_arbitrary_splits_match_one_window(self, factory, seed, splits):
        n, d = 20, 3
        rounds = sum(splits)
        reference = snap_key(fused(factory, n, d, seed, rounds))
        net = factory(n, d, seed=seed, backend="array")
        for span in splits:
            net.advance_to_time_batched(net.now + span)
        assert snap_key(net) == reference

    def test_fused_matches_across_backends_per_window_size(self):
        # The partition must not matter on either backend: the array
        # kernel's windows and the oracle's hook rounds.
        for window in (1.0, 3.0, None):
            a = fused(SDGR, 12, 2, 9, 31, backend="array", window=window)
            b = fused(SDGR, 12, 2, 9, 31, backend="dict", window=window)
            assert snap_key(a) == snap_key(b)


class TestFallbacks:
    def test_n2_regen_falls_back_to_per_event(self):
        # SDGR's regeneration needs a third node; at n=2 orphans stay
        # empty and draw nothing, as in per-event rounds.
        net = SDGR(2, 2, seed=1, backend="array")
        net.advance_to_time_batched(net.now + 10)
        net.state.check_invariants()
        assert net.num_alive() == 2
        assert snap_key(net) == snap_key(per_event(SDGR, 2, 2, 1, 10))

    def test_custom_policy_falls_back_to_per_event(self):
        from repro.models.streaming import StreamingNetwork

        class LoggingRegen(RegenerationPolicy):
            """Overriding a churn hook disables the fused path."""

            def handle_death(self, state, node_id, time, rng):
                return super().handle_death(state, node_id, time, rng)

        assert LoggingRegen(2).round_batch_regenerate is None
        net = StreamingNetwork(10, LoggingRegen(2), seed=3, backend="array")
        net.advance_to_time_batched(net.now + 20)
        net.state.check_invariants()
        assert net.num_alive() == 10

    def test_policy_gates(self):
        assert RegenerationPolicy(2).round_batch_regenerate is True
        assert NoRegenerationPolicy(2).round_batch_regenerate is False


class TestDistributionParity:
    """Streaming fused runs take the per-event draws, so their summaries
    equal the per-event ones seed for seed; the threshold driver's fused
    and per-event runs follow one law on different seeded trajectories,
    and summary statistics agree across seed ensembles."""

    def test_sdgr_mean_degree(self):
        n, d, rounds = 200, 4, 400
        for seed in range(3):
            f = fused(SDGR, n, d, seed, rounds, window=150)
            e = per_event(SDGR, n, d, seed, rounds)
            assert [f.state.degree(i) for i in f.state.alive_ids()] == [
                e.state.degree(i) for i in e.state.alive_ids()
            ]

    def test_sdg_isolated_fraction(self):
        n, d, rounds = 200, 4, 400
        for seed in range(3):
            f = fused(SDG, n, d, seed, rounds, window=150)
            e = per_event(SDG, n, d, seed, rounds)
            assert [f.state.degree(i) == 0 for i in f.state.alive_ids()] == [
                e.state.degree(i) == 0 for i in e.state.alive_ids()
            ]

    def test_threshold_population_trajectory(self):
        pops_fused, pops_event = [], []
        for seed in range(8):
            f = TSDG(50, 4, threshold=4, seed=seed)
            f.run_rounds(1)
            f.advance_to_time_batched(f.now + 300)
            e = TSDG(50, 4, threshold=4, seed=seed + 500)
            e.run_rounds(301)
            pops_fused.append(f.num_alive())
            pops_event.append(e.num_alive())
        # Same pure-growth law: populations track each other closely
        # relative to their scale.
        assert abs(np.mean(pops_fused) - np.mean(pops_event)) < (
            0.1 * np.mean(pops_event)
        )


class TestCoalescedEvents:
    def test_fused_window_emits_batched_records(self):
        n, rounds = 20, 15
        net = SDGR(n, 3, seed=5, backend="array")
        report = net.advance_to_time_batched(net.now + rounds)
        kinds = [type(ev.kind) for ev in report.events]
        assert kinds == [NodesDied, NodesBorn]
        # Streaming churn ids are deterministic: round r kills r-n-1 and
        # births r-1, so a window starting at round n covers exactly:
        assert report.deaths == list(range(rounds))
        assert report.births == list(range(n, n + rounds))
        assert report.start_time == pytest.approx(float(n))
        assert report.end_time == pytest.approx(float(n + rounds))

    def test_chunked_window_coalesces_per_chunk(self):
        net = SDGR(20, 3, seed=5, backend="array")
        report = net.advance_to_time_batched(net.now + 15, window=4.0)
        assert all(
            isinstance(ev.kind, (NodesDied, NodesBorn))
            for ev in report.events
        )
        assert report.deaths == list(range(15))
        assert report.births == list(range(20, 35))


class TestFastRoundsSimulation:
    """The ``fast_rounds`` spec field routes Simulation.run through the
    fused window path where the driver has one, per-event otherwise."""

    def _spec(self, **overrides):
        from repro.scenario import ScenarioSpec

        defaults = dict(
            churn="streaming",
            policy="regen",
            n=40,
            d=3,
            horizon=16,
            seed=13,
            fast_rounds=True,
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    def test_spec_round_trips(self):
        from repro.scenario import ScenarioSpec

        spec = self._spec()
        assert spec.fast_rounds is True
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec and again.fast_rounds is True
        assert ScenarioSpec().fast_rounds is False

    def test_fast_rounds_runs_fused(self, driver_backend):
        from repro.scenario import Simulation

        sim = Simulation(self._spec())
        assert type(sim.state) is BACKENDS[driver_backend]
        assert sim._fast_rounds_active()
        sim.run()
        assert sim.rounds_completed == 16
        assert sim.network.num_alive() == 40
        sim.state.check_invariants()

    def test_environment_cannot_change_a_cell(self, driver_backend, monkeypatch):
        # A sweep cell's value is a function of its spec (and so of its
        # content-addressed key): no environment variable may switch its
        # stepping path behind the key's back.
        from repro.scenario import ScenarioSpec
        from repro.sweep import SweepSpec, cell_tasks, execute_cell

        sweep = SweepSpec(
            base=ScenarioSpec(
                churn="streaming", policy="none", n=200, d=2, horizon=40
            ),
            stream="fast-rounds-env",
        )
        (task,) = cell_tasks(sweep, "array")
        _, plain, error, _ = execute_cell(task)
        assert error is None
        monkeypatch.setenv("REPRO_FAST_ROUNDS", "1")
        _, with_env, error, _ = execute_cell(task)
        assert error is None
        assert with_env == plain

    @pytest.mark.parametrize(
        "churn_params", [{"batch": True}, {"window": 5}]
    )
    def test_removed_stepping_keys_rejected(self, churn_params):
        # fast_rounds is the only request for batched stepping; the old
        # churn_params keys fail the unknown-key check, unmapped.
        with pytest.raises(ConfigurationError, match="unknown"):
            self._spec(churn="poisson", churn_params=churn_params)

    @pytest.mark.parametrize("fast_rounds", [False, True])
    def test_fractional_horizon_rejected(self, driver_backend, fast_rounds):
        # Both stepping paths count whole rounds: a fractional horizon is
        # rejected before any churn is applied.
        from repro.scenario import Simulation

        sim = Simulation(
            self._spec(
                churn="poisson",
                horizon=20.5,
                fast_rounds=fast_rounds,
            )
        )
        assert sim._fast_rounds_active() is fast_rounds
        start = sim.network.now
        with pytest.raises(ConfigurationError, match="whole number of rounds"):
            sim.run()
        assert sim.rounds_completed == 0
        assert sim.network.now == start

    def test_advisory_on_unbatched_driver(self):
        # The adversarial driver has no fused path: fast_rounds falls
        # back to per-event instead of erroring.
        from repro.scenario import Simulation

        spec = self._spec(
            churn="adversarial", churn_params={"strategy": "max_degree"}
        )
        sim = Simulation(spec)
        assert not sim._fast_rounds_active()
        sim.run()
        assert sim.rounds_completed == 16

    def test_checkpoint_mid_window_restore_parity(self, tmp_path):
        # Partition invariance makes a checkpoint taken at any round
        # boundary exact: restore + finish is bit-identical to the
        # uninterrupted fused run, and to the per-event one.
        from repro.scenario import Simulation

        observers = ("size", {"name": "degrees", "params": {"every": 4}})
        spec = self._spec()
        baseline = Simulation(spec, observers=observers).run()
        partial = Simulation(spec, observers=observers)
        partial._run_windows(7)  # not a multiple of any cadence
        path = partial.save_checkpoint(tmp_path / "ck.json")
        restored = Simulation.restore(path).run()
        assert restored.rounds_completed == baseline.rounds_completed
        assert restored.network.now == baseline.network.now
        assert restored.results() == baseline.results()
        assert restored.snapshot() == baseline.snapshot()
        assert (
            restored.network.rng.bit_generator.state
            == baseline.network.rng.bit_generator.state
        )
        per_event = Simulation(self._spec(fast_rounds=False)).run()
        assert restored.snapshot() == per_event.snapshot()
        assert (
            restored.network.rng.bit_generator.state
            == per_event.network.rng.bit_generator.state
        )


def _free_slots(state, count):
    """*count* empty ``(node, slot)`` pairs, clearing slots of the
    newest nodes when the window left too few empty."""
    alive = sorted(state.alive_ids())
    pairs = [
        (u, j)
        for u in alive
        for j, t in enumerate(state.out_slots_of(u))
        if t is None
    ][:count]
    for u in alive[len(alive) - (count - len(pairs)) :]:
        state.clear_slot(u, 0)
        pairs.append((u, 0))
    return pairs


def _mutate(state, site, time):
    alive = sorted(state.alive_ids())
    if site == "assign_slots":
        pairs = _free_slots(state, 3)
        state.assign_slots(pairs, [alive[len(alive) // 2]] * len(pairs))
    elif site == "clear_slot":
        state.clear_slot(alive[-1], 1)
    elif site == "remove_node":
        state.remove_node(alive[0], time)
    elif site == "add_node":
        node = state.allocate_ids(1)[0]
        state.add_node(node, time, 3)
        state.assign_slots([(node, 0), (node, 1)], [alive[0], alive[3]])
    elif site == "apply_birth_slots":
        ids = state.allocate_ids(4)
        targets = np.array(alive[:12], dtype=np.int64).reshape(4, 3)
        targets[3, 0] = ids[0]  # a target among the batch's newborns
        state.apply_birth_slots(ids, time, targets)
    elif site == "place_slots_capped":
        pairs = _free_slots(state, 6)
        state.place_slots_capped(
            [u for u, _ in pairs], [j for _, j in pairs], 4, 8, make_rng(5)
        )
    elif site == "grow_rows":
        cap = state.row_capacity()
        ids = state.allocate_ids(cap - state.num_alive() + 5)
        state.add_nodes(ids, time, 3)
        assert state.row_capacity() > cap
        state.assign_slots([(ids[-1], 0), (ids[-1], 1)], [alive[0], alive[-1]])
        state.remove_node(alive[1], time)


MUTATION_SITES = [
    "assign_slots",
    "clear_slot",
    "remove_node",
    "add_node",
    "apply_birth_slots",
    "place_slots_capped",
    "grow_rows",
]


class TestLazyReverseIndex:
    """After a fused window the reverse index is absent; a reader
    snapshots it and builds a row only when first touching it, and a
    writer leaves an absent index absent.  Every mutation site must
    leave the same topology and the same rows, as sets, as the same
    mutation applied after building every row eagerly."""

    @staticmethod
    def _run(factory, site, eager, restore):
        net = factory(60, 3, seed=9)
        net.advance_to_time_batched(net.now + 80)
        state = net.state
        if restore:
            # A restored index is dropped too; freeing the lowest row
            # first lets a later birth take a row before the others.
            state.remove_node(min(state.alive_ids()), net.now)
            state.restore_state(state.dump_state())
        if eager:
            state.check_invariants()  # builds every row
        _mutate(state, site, net.now)
        built = 0 if state._in_refs is None else len(state._in_refs)
        state.check_invariants()
        in_refs = [
            sorted(state._in_refs[row]) for row in range(state.row_capacity())
        ]
        return net, built, in_refs

    @pytest.mark.parametrize("restore", [False, True], ids=["window", "restore"])
    @pytest.mark.parametrize("site", MUTATION_SITES)
    @pytest.mark.parametrize("factory", [SDG, SDGR], ids=["SDG", "SDGR"])
    def test_lazy_rows_match_eager_rebuild(self, factory, site, restore):
        lazy, lazy_built, lazy_refs = self._run(factory, site, False, restore)
        eager, _, eager_refs = self._run(factory, site, True, restore)
        assert lazy_built < lazy.state.num_alive()  # rows stayed unbuilt
        assert lazy_refs == eager_refs
        assert snap_key(lazy) == snap_key(eager)
        assert lazy.state.dump_state()["free"] == eager.state.dump_state()["free"]
        assert lazy.state.mutation_epoch() == eager.state.mutation_epoch()

    def test_restore_snapshots_rows_in_row_major_order(self):
        from repro.core.array_backend import ArraySlotBackend

        net = SDGR(60, 3, seed=9)
        net.advance_to_time_batched(net.now + 80)
        net.run_rounds(3)
        payload = net.state.dump_state()
        restored = ArraySlotBackend()
        restored.restore_state(payload)
        assert restored._in_refs is None  # nothing built until needed
        # Reference: an eager rebuild inserting the slots row-major.
        slots, id_of = payload["slots"], payload["id_of"]
        expected = [set() for _ in range(restored.row_capacity())]
        for row, col in np.argwhere(slots >= 0).tolist():
            expected[slots[row, col]].add((int(id_of[row]), col))
        restored.check_invariants()
        assert [
            list(restored._in_refs[row])
            for row in range(restored.row_capacity())
        ] == [list(refs) for refs in expected]
        for u in net.state.alive_ids():
            assert restored.neighbors(u) == net.state.neighbors(u)
