"""Tests for the threshold-driven streaming driver (Angileri et al. 2025)."""

from __future__ import annotations

import pytest

from repro.core.edge_policy import NoRegenerationPolicy, RegenerationPolicy
from repro.errors import ConfigurationError, SimulationError
from repro.models import TSDG
from repro.models.threshold import ThresholdStreamingNetwork
from repro.scenario import ScenarioSpec, load_scenario_document, simulate
from tests.oracles.dict_backend import BACKENDS


class TestConstruction:
    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigurationError):
            ThresholdStreamingNetwork(1, NoRegenerationPolicy(2), threshold=1)

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ConfigurationError):
            ThresholdStreamingNetwork(10, NoRegenerationPolicy(2), threshold=0)

    def test_warm_fills_network(self):
        net = TSDG(n=50, d=3, seed=0)
        assert net.num_alive() == 50
        assert net.round_number == 50

    def test_invariant_not_meaningful_before_first_sweep(self):
        net = TSDG(n=20, d=3, seed=0)
        with pytest.raises(SimulationError):
            net.check_threshold_invariant()


class TestDynamics:
    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_invariant_holds_after_every_round(self, backend):
        net = ThresholdStreamingNetwork(
            60, NoRegenerationPolicy(4), threshold=4, seed=3,
            backend=BACKENDS[backend](),
        )
        for _ in range(80):
            net.advance_round()
            net.check_threshold_invariant()

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_invariant_holds_under_regeneration(self, backend):
        net = ThresholdStreamingNetwork(
            60, RegenerationPolicy(4), threshold=5, seed=3,
            backend=BACKENDS[backend](),
        )
        for _ in range(80):
            net.advance_round()
            net.check_threshold_invariant()

    def test_threshold_departures_happen(self):
        # At threshold = d without regeneration, nodes whose request
        # placements collapse (duplicates, dead targets) must leave.
        net = TSDG(n=100, d=4, threshold=4, seed=0)
        deaths = 0
        for _ in range(300):
            deaths += len(net.advance_round().deaths)
        assert deaths > 0
        assert net.num_alive() < 100 + 300  # strictly fewer than births

    def test_supercritical_regime_grows(self):
        # threshold << d with regeneration: degrees never drop below the
        # threshold, so nobody leaves and the network grows 1/round.
        net = ThresholdStreamingNetwork(
            50, RegenerationPolicy(4), threshold=2, seed=1
        )
        for _ in range(60):
            net.advance_round()
        assert net.num_alive() == 50 + 60

    def test_core_regime_self_regulates(self):
        # threshold = d + 1 with regeneration prunes to the (d+1)-core,
        # whose size then stays put while newborns revolve through.
        net = ThresholdStreamingNetwork(
            200, RegenerationPolicy(6), threshold=7, seed=0
        )
        for _ in range(100):
            net.advance_round()
        size_after_prune = net.num_alive()
        for _ in range(200):
            net.advance_round()
        assert abs(net.num_alive() - size_after_prune) <= 3
        assert 0 < size_after_prune < 200

    def test_grace_round_protects_the_newborn(self):
        # Every node needs an in-link (threshold d+1): a newborn's own d
        # requests cannot meet the threshold, so without the one-round
        # grace it could never even audition for the core.
        net = ThresholdStreamingNetwork(
            200, RegenerationPolicy(6), threshold=7, seed=0
        )
        report = net.advance_round()
        newborn = report.births[0]
        assert net.state.is_alive(newborn)
        net.check_threshold_invariant()  # newborn exempt, rest >= 7

    def test_sweep_retires_in_ascending_id_order(self):
        """The first sweep of the core regime cascades through most of
        the network, and each departure regenerates: the heap-ordered
        sweep must retire nodes in the order of a scan for the smallest
        pending id, so the deaths and the draws match."""

        class ScanSweep(ThresholdStreamingNetwork):
            def _sweep(self, candidates, report, exempt):
                state = self.state
                while candidates:
                    node_id = min(candidates)
                    candidates.discard(node_id)
                    if not state.is_alive(node_id):
                        continue
                    if state.degree(node_id) >= self.threshold:
                        continue
                    neighbors = set(state.neighbors(node_id))
                    report.events.append(
                        self.policy.handle_death(state, node_id, self.now, self.rng)
                    )
                    for neighbor in neighbors:
                        if neighbor != exempt and state.is_alive(neighbor):
                            candidates.add(neighbor)

        nets = [
            cls(200, RegenerationPolicy(6), threshold=7, seed=0)
            for cls in (ThresholdStreamingNetwork, ScanSweep)
        ]
        reports = [[net.advance_round() for _ in range(3)] for net in nets]
        assert [r.deaths for r in reports[0]] == [r.deaths for r in reports[1]]
        assert len(reports[0][0].deaths) > 50
        assert nets[0].snapshot() == nets[1].snapshot()
        assert nets[0].rng.bit_generator.state == nets[1].rng.bit_generator.state

    def test_seeded_trajectories_bit_identical_across_backends(self):
        nets = [
            ThresholdStreamingNetwork(
                80, NoRegenerationPolicy(3), threshold=3, seed=11,
                backend=BACKENDS[backend](),
            )
            for backend in ("dict", "array")
        ]
        for _ in range(120):
            for net in nets:
                net.advance_round()
        snaps = [net.snapshot() for net in nets]
        assert snaps[0].nodes == snaps[1].nodes
        assert snaps[0].adjacency == snaps[1].adjacency
        assert snaps[0].birth_times == snaps[1].birth_times

    def test_fast_warm_same_size_different_trajectory(self):
        slow = TSDG(n=60, d=3, seed=2, fast_warm=False)
        fast = TSDG(n=60, d=3, seed=2, fast_warm=True)
        assert slow.num_alive() == fast.num_alive() == 60


class TestScenarioIntegration:
    def test_registry_builds_and_runs(self):
        spec = ScenarioSpec(
            churn="threshold",
            policy="regen",
            n=60,
            d=4,
            churn_params={"threshold": 3},
            horizon=40,
        )
        sim = simulate(spec, seed=0)
        assert sim.network.num_alive() > 0
        assert isinstance(sim.network, ThresholdStreamingNetwork)
        assert sim.network.threshold == 3

    def test_default_threshold_is_half_d(self):
        spec = ScenarioSpec(churn="threshold", policy="regen", n=40, d=6)
        sim = simulate(spec, seed=0)
        assert sim.network.threshold == 3

    def test_json_round_trip(self):
        spec = ScenarioSpec(
            churn="threshold",
            policy="none",
            n=50,
            d=4,
            churn_params={"threshold": 4},
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                churn="threshold", churn_params={"lifetime": "exponential"}
            )

    def test_bad_threshold_rejected_at_spec_time(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(churn="threshold", churn_params={"threshold": 0})

    def test_example_document_loads(self):
        document = load_scenario_document("examples/threshold_streaming.json")
        assert document.spec.churn == "threshold"
        assert document.should_flood

    def test_flooding_completes_on_threshold_graph(self):
        spec = ScenarioSpec(
            churn="threshold",
            policy="none",
            n=80,
            d=6,
            churn_params={"threshold": 6},
            horizon=80,
            protocol="discrete",
            protocol_params={"max_rounds": 60},
        )
        result = simulate(spec, seed=0).flood()
        assert result.completed
