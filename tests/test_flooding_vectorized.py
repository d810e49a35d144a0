"""Vectorized (mask-frontier) gossip and lossy flooding, and the protocol
registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.flooding import (
    flood_asynchronous,
    flood_discrete,
    flood_lossy,
    get_protocol,
    gossip_push_pull,
    protocol_names,
)
from repro.models import PDGR, SDGR
from tests.oracles.dict_backend import BACKENDS


def _warm_sdgr(n=120, d=6, seed=0, backend="array"):
    net = SDGR(n=n, d=d, seed=seed, backend=BACKENDS[backend]())
    net.run_rounds(n)
    return net


class TestVectorizedLossy:
    def test_loss_zero_equals_discrete_flooding(self):
        """With loss=0 every boundary transmission succeeds, so lossy
        flooding — set path and mask path alike — must replay
        flood_discrete's informed trajectory exactly."""
        reference = flood_discrete(_warm_sdgr(seed=3), max_rounds=100)
        set_path = flood_lossy(_warm_sdgr(seed=3), loss=0.0, seed=1)
        mask_path = flood_lossy(
            _warm_sdgr(seed=3), loss=0.0, seed=1, vectorized=True
        )
        assert set_path.informed_sizes == reference.informed_sizes
        assert mask_path.informed_sizes == reference.informed_sizes
        assert mask_path.completion_round == reference.completion_round

    def test_vectorized_completes_under_loss(self):
        result = flood_lossy(_warm_sdgr(seed=5), loss=0.3, seed=2, vectorized=True)
        assert result.completed
        # retries slow flooding down, they never block it
        assert result.completion_round is not None

    def test_distributionally_close_to_set_path(self):
        set_rounds, mask_rounds = [], []
        for seed in range(6):
            set_rounds.append(
                flood_lossy(_warm_sdgr(seed=seed), loss=0.4, seed=seed).completion_round
            )
            mask_rounds.append(
                flood_lossy(
                    _warm_sdgr(seed=seed), loss=0.4, seed=seed, vectorized=True
                ).completion_round
            )
        assert abs(np.mean(set_rounds) - np.mean(mask_rounds)) < 3.0


class TestVectorizedGossip:
    def test_vectorized_completes(self):
        result = gossip_push_pull(
            _warm_sdgr(seed=1), seed=4, vectorized=True, max_rounds=400
        )
        assert result.completed

    def test_push_only_and_pull_only(self):
        push = gossip_push_pull(
            _warm_sdgr(seed=2), seed=1, pull=False, vectorized=True, max_rounds=600
        )
        pull = gossip_push_pull(
            _warm_sdgr(seed=2), seed=1, push=False, vectorized=True, max_rounds=600
        )
        assert push.completed and pull.completed

    def test_distributionally_close_to_set_path(self):
        set_rounds, mask_rounds = [], []
        for seed in range(6):
            set_rounds.append(
                gossip_push_pull(_warm_sdgr(seed=seed), seed=seed).completion_round
            )
            mask_rounds.append(
                gossip_push_pull(
                    _warm_sdgr(seed=seed), seed=seed, vectorized=True
                ).completion_round
            )
        assert abs(np.mean(set_rounds) - np.mean(mask_rounds)) < 3.0


class TestProtocolRegistry:
    def test_all_five_registered(self):
        assert protocol_names() == [
            "asynchronous", "discrete", "discretized", "gossip", "lossy",
        ]

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown flooding protocol"):
            get_protocol("smoke-signals")

    def test_registry_run_matches_function(self):
        via_registry = get_protocol("discrete")(
            _warm_sdgr(seed=7), max_rounds=100
        )
        direct = flood_discrete(_warm_sdgr(seed=7), max_rounds=100)
        assert via_registry.informed_sizes == direct.informed_sizes

    def test_asynchronous_requires_poisson(self):
        with pytest.raises(ConfigurationError, match="PoissonNetwork"):
            flood_asynchronous(_warm_sdgr())
        result = flood_asynchronous(PDGR(n=60, d=35, seed=0), max_time=200.0)
        assert result.completed


class TestDeadSourceFrontier:
    """Regression: seeding a frontier with an already-dead id.

    MaskFrontier.__init__ used to crash with a KeyError (rows_for had no
    row for a dead id) where SetFrontier silently tolerated dead sources
    — they simply drop out at the first absorb.  Both representations
    must now accept dead seeds and compute identical informed sets from
    round 1 on.
    """

    @staticmethod
    def _informed_ids(frontier, state):
        from repro.flooding.frontier import MaskFrontier

        if isinstance(frontier, MaskFrontier):
            rows = np.nonzero(frontier.mask)[0]
            return {int(i) for i in state.ids_for_rows(rows)}
        return set(frontier.informed)

    def test_mask_frontier_accepts_dead_seed(self):
        from repro.flooding.frontier import MaskFrontier

        net = _warm_sdgr(n=60, seed=2)
        report = net.advance_round()
        dead = report.deaths[0]
        assert not net.state.is_alive(dead)
        frontier = MaskFrontier(net.state, {dead, net.newest_id()})
        assert frontier.count() == 1  # the dead seed contributes no row

    def test_rows_for_skips_dead_ids(self):
        net = _warm_sdgr(n=50, seed=3)
        report = net.advance_round()
        dead = report.deaths[0]
        alive = net.newest_id()
        rows = net.state.rows_for([dead, alive])
        assert rows.tolist() == [net.state.row_for(alive)]

    def test_boundary_of_tolerates_dead_members(self):
        net = _warm_sdgr(n=50, seed=5)
        report = net.advance_round()
        dead = report.deaths[0]
        alive = net.newest_id()
        with_dead = net.state.boundary_of({dead, alive})
        without = net.state.boundary_of({alive})
        assert with_dead == without

    def test_flood_from_dead_source_identical_across_frontiers(self):
        """Drive the Definition 3.3 round loop from an informed set
        containing a pre-round-0 corpse on both representations (and both
        backends) — every post-absorb informed set must match exactly."""
        from repro.flooding.frontier import MaskFrontier, SetFrontier

        seeds = []
        trajectories = []
        for backend, frontier_cls in [
            ("dict", SetFrontier),
            ("array", SetFrontier),
            ("array", MaskFrontier),
        ]:
            net = _warm_sdgr(n=60, d=4, seed=7, backend=backend)
            report = net.advance_round()
            dead = report.deaths[0]
            source = net.newest_id()
            seeds.append((dead, source))
            frontier = frontier_cls(net.state, {dead, source})
            rounds = []
            for _ in range(12):
                boundary = frontier.boundary()
                report = net.advance_round()
                frontier.absorb(boundary, report)
                rounds.append(
                    frozenset(self._informed_ids(frontier, net.state))
                )
            trajectories.append(rounds)
        assert seeds[0] == seeds[1] == seeds[2]
        assert trajectories[0] == trajectories[1] == trajectories[2]
        assert trajectories[0][-1]  # the flood actually progressed
