"""Tests for the Simulation session object and the experiment ports."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.flooding import flood_discrete
from repro.models import PDGR, SDG, SDGR
from repro.scenario import (
    CoverageObserver,
    ScenarioSpec,
    SizeObserver,
    Simulation,
    simulate,
)
from tests.oracles.dict_backend import (
    BACKENDS,
    build_drivers_on_oracle,
    flood_discrete_reference,
)


class TestBitIdentity:
    """A scenario-built session must replay the hand-wired construction."""

    def test_streaming_matches_direct(self, driver_backend):
        spec = ScenarioSpec(
            churn="streaming", policy="none", n=80, d=3, horizon=80
        )
        sim = simulate(spec, seed=11)
        net = SDG(n=80, d=3, seed=11)
        net.run_rounds(80)
        assert sim.snapshot() == net.snapshot()

    def test_poisson_matches_direct(self, driver_backend):
        spec = ScenarioSpec(churn="poisson", policy="regen", n=60, d=4)
        sim = simulate(spec, seed=5)
        assert type(sim.state) is BACKENDS[driver_backend]
        assert sim.snapshot() == PDGR(n=60, d=4, seed=5).snapshot()

    def test_flood_matches_direct(self, driver_backend):
        spec = ScenarioSpec(
            churn="streaming", policy="regen", n=100, d=8, horizon=100,
            protocol="discrete", protocol_params={"max_rounds": 200},
        )
        sim = simulate(spec, seed=3)
        net = SDGR(n=100, d=8, seed=3)
        net.run_rounds(100)
        if driver_backend == "dict":
            # The oracle floods through the set frontier.
            via_scenario = flood_discrete_reference(sim.network, max_rounds=200)
            direct = flood_discrete_reference(net, max_rounds=200)
        else:
            via_scenario = sim.flood()
            direct = flood_discrete(net, max_rounds=200)
        assert via_scenario.informed_sizes == direct.informed_sizes
        assert via_scenario.completion_round == direct.completion_round

    def test_spec_seed_used_when_no_override(self):
        spec = ScenarioSpec(churn="streaming", policy="none", n=50, d=2, seed=9)
        assert simulate(spec).snapshot() == simulate(spec, seed=9).snapshot()


class TestSession:
    def test_run_returns_self_and_counts_rounds(self):
        sim = Simulation(ScenarioSpec(churn="streaming", n=40, d=2, horizon=10))
        assert sim.run() is sim
        assert sim.rounds_completed == 10
        assert sim.network.round_number == 50  # 40 warm + 10 run

    def test_explicit_rounds_override_horizon(self):
        sim = Simulation(ScenarioSpec(churn="streaming", n=40, d=2, horizon=10))
        sim.run(rounds=3)
        assert sim.rounds_completed == 3

    def test_flood_without_protocol_raises(self):
        sim = Simulation(ScenarioSpec(churn="streaming", n=40, d=2))
        with pytest.raises(ConfigurationError, match="no spreading protocol"):
            sim.flood()

    def test_flood_protocol_override(self):
        sim = simulate(
            ScenarioSpec(churn="streaming", policy="regen", n=60, d=8, horizon=60)
        )
        result = sim.flood(protocol="gossip", seed=1, max_rounds=300)
        assert result.max_informed > 1

    def test_bad_observer_declaration(self):
        spec = ScenarioSpec(churn="streaming", n=40, d=2)
        with pytest.raises(ConfigurationError, match="unknown observer"):
            Simulation(spec, observers=["scribe"])
        with pytest.raises(ConfigurationError, match="needs a 'name'"):
            Simulation(spec, observers=[{"params": {}}])
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            Simulation(spec, observers=[42])

    def test_batched_poisson_run(self):
        spec = ScenarioSpec(
            churn="poisson", policy="regen", n=80, d=4, horizon=30,
            fast_rounds=True,
        )
        sim = simulate(spec, seed=2, observers=[SizeObserver(every=10)])
        sim.state.check_invariants()
        sizes = sim.results()["size"]["sizes"]
        # three windows (rounds 10/20/30); the last lands on the horizon,
        # so the finish notification is suppressed — no duplicate reading.
        assert len(sizes) == 3
        assert all(s > 0 for s in sizes)
        assert sim.network.now == pytest.approx(3 * 80 + 30)


class TestObserverPipeline:
    def test_observers_compose_in_one_pass(self):
        spec = ScenarioSpec(churn="streaming", policy="regen", n=60, d=6, horizon=20)
        sim = simulate(
            spec,
            seed=4,
            observers=[
                "isolated",
                {"name": "degrees", "params": {"every": 10}},
                SizeObserver(every=5),
            ],
        )
        results = sim.results()
        assert results["isolated"]["final"]["fraction"] == 0.0
        # Cadences divide the horizon, so each observer's final window IS
        # its horizon reading (on_finish adds nothing for them).
        assert len(results["degrees"]["series"]) == 2  # rounds 10, 20
        assert len(results["size"]["sizes"]) == 4
        assert results["size"]["total_births"] == 20

    def test_coverage_observer_sees_floods(self):
        spec = ScenarioSpec(
            churn="streaming", policy="regen", n=60, d=8, horizon=60,
            protocol="discrete",
        )
        sim = simulate(spec, seed=1, observers=[CoverageObserver()])
        sim.flood()
        sim.flood()
        coverage = sim.results()["coverage"]
        assert len(coverage["runs"]) == 2
        assert coverage["all_completed"] is True

    @pytest.mark.parametrize("fast_rounds", [False, True])
    def test_window_on_horizon_emits_exactly_once(self, fast_rounds):
        """The cadence edge case: a window boundary landing exactly on
        the horizon must produce its final report once — not zero times,
        not twice — on both stepping paths."""
        spec = ScenarioSpec(
            churn="poisson", policy="regen", n=50, d=3, horizon=20,
            fast_rounds=fast_rounds,
        )
        sim = simulate(spec, seed=6, observers=[SizeObserver(every=5)])
        result = sim.results()["size"]
        # Windows at rounds 5/10/15/20 — the round-20 reading IS the
        # horizon reading; no duplicate from on_finish.
        assert len(result["sizes"]) == 4
        assert result["times"][-1] == sim.network.now
        assert result["final_size"] == sim.network.num_alive()

    @pytest.mark.parametrize("fast_rounds", [False, True])
    def test_horizon_off_cadence_still_reports_final_state(self, fast_rounds):
        """When the horizon is NOT on the cadence, on_finish still
        delivers the final state exactly once."""
        spec = ScenarioSpec(
            churn="poisson", policy="regen", n=50, d=3, horizon=22,
            fast_rounds=fast_rounds,
        )
        sim = simulate(spec, seed=6, observers=[SizeObserver(every=5)])
        result = sim.results()["size"]
        # Windows at 5/10/15/20 plus the distinct finish reading at 22.
        assert len(result["sizes"]) == 5
        assert result["times"][-1] == sim.network.now
        assert result["times"][-1] != result["times"][-2]

    def test_duplicate_observer_names_keep_both(self):
        spec = ScenarioSpec(churn="streaming", n=40, d=2, horizon=4)
        sim = simulate(spec, observers=[SizeObserver(every=1), SizeObserver(every=2)])
        results = sim.results()
        assert set(results) == {"size", "size_2"}


class TestPortedExperimentParity:
    """Oracle seeded parity for ported experiments: the scenario layer
    preserves the bit-identical dict/array guarantee end to end.  The
    dict run builds every driver on the oracle
    (``tests/oracles/dict_backend.py``)."""

    @pytest.mark.parametrize(
        "experiment_id", ["EXP-01", "EXP-02", "EXP-11", "EXP-17"]
    )
    def test_dict_array_identical(self, experiment_id, monkeypatch):
        on_array = run_experiment(experiment_id, quick=True, seed=0)
        build_drivers_on_oracle(monkeypatch)
        on_dict = run_experiment(experiment_id, quick=True, seed=0)
        assert [dict(r) for r in on_dict.rows] == [dict(r) for r in on_array.rows]
        assert on_dict.verdict == on_array.verdict
