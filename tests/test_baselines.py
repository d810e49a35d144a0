"""Tests for the related-work protocol baselines."""

from __future__ import annotations

import pytest

from repro.analysis.components import component_summary
from repro.baselines import CentralCacheNetwork, TokenNetwork
from repro.errors import ConfigurationError
from repro.flooding import flood_discrete
from repro.scenario import ScenarioSpec, Simulation


class TestCentralCache:
    def test_stays_connected(self):
        net = CentralCacheNetwork(n=150, d=4, seed=0)
        net.run_rounds(150)
        assert component_summary(net.snapshot()).is_connected

    def test_invariants(self):
        net = CentralCacheNetwork(n=100, d=3, seed=1)
        net.run_rounds(50)
        net.state.check_invariants()

    def test_cache_holds_alive_nodes(self):
        net = CentralCacheNetwork(n=100, d=3, seed=2)
        net.run_rounds(120)
        assert all(net.state.is_alive(c) for c in net.cache)

    def test_cache_size_bounded(self):
        net = CentralCacheNetwork(n=100, d=3, cache_size=10, seed=3)
        net.run_rounds(60)
        assert len(net.cache) <= 11  # cache + the newborn insertion

    def test_flooding_completes_quickly(self):
        net = CentralCacheNetwork(n=200, d=4, seed=4)
        net.run_rounds(200)
        result = flood_discrete(net, max_rounds=60)
        assert result.completed

    def test_cache_smaller_than_d_rejected(self):
        with pytest.raises(ConfigurationError):
            CentralCacheNetwork(n=50, d=8, cache_size=4)

    def test_size_steady(self):
        net = CentralCacheNetwork(n=80, d=3, seed=5)
        net.run_rounds(100)
        assert net.num_alive() == 80


class TestTokenNetwork:
    def test_giant_component(self):
        net = TokenNetwork(n=150, d=4, seed=0)
        net.run_rounds(150)
        assert component_summary(net.snapshot()).giant_fraction > 0.95

    def test_invariants(self):
        net = TokenNetwork(n=80, d=3, seed=1)
        net.run_rounds(40)
        net.state.check_invariants()

    def test_tokens_owned_by_alive_nodes_only_after_deaths(self):
        net = TokenNetwork(n=60, d=3, seed=2)
        net.run_rounds(80)
        assert all(net.state.is_alive(t.owner) for t in net.tokens)

    def test_token_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenNetwork(n=50, d=4, tokens_per_node=2)

    def test_newborn_gets_d_connections(self):
        net = TokenNetwork(n=100, d=4, seed=3)
        net.run_rounds(120)
        newest = net.newest_id()
        assert net.state.record(newest).out_degree() == 4

    def test_flooding_completes(self):
        net = TokenNetwork(n=150, d=4, seed=4)
        net.run_rounds(150)
        result = flood_discrete(net, max_rounds=80)
        assert result.completed


@pytest.mark.parametrize("churn", ["tokens", "central_cache"])
def test_fast_rounds_keep_the_baseline_dynamics(churn):
    # A baseline steps its own advance_round; fused windows must too.
    sessions = []
    for fast in (False, True):
        spec = ScenarioSpec(
            churn=churn,
            policy="none",
            n=100,
            d=3,
            horizon=50,
            seed=1,
            fast_rounds=fast,
        )
        sim = Simulation(spec, observers=[{"name": "size", "params": {"every": 7}}])
        sessions.append(sim.run())
    per_event, fused = (sim.network for sim in sessions)
    slots = [
        {u: list(net.state.out_slots_of(u)) for u in net.state.alive_ids()}
        for net in (per_event, fused)
    ]
    assert slots[0] == slots[1]
    assert fused.rng.bit_generator.state == per_event.rng.bit_generator.state
    assert vars(fused).get("cache") == vars(per_event).get("cache")
    tokens = [
        [(t.owner, t.carrier, t.age) for t in vars(net).get("tokens", [])]
        for net in (per_event, fused)
    ]
    assert tokens[0] == tokens[1]
    assert sessions[0].results() == sessions[1].results()
