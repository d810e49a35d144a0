"""Breadth tests covering cross-cutting behaviours not exercised elsewhere."""

from __future__ import annotations

import pytest

from repro.core.edge_policy import CappedRegenerationPolicy
from repro.experiments.common import ExperimentResult
from repro.flooding import flood_lossy, gossip_push_pull
from repro.models import PDGR, SDGR
from repro.models.adversarial import AdversarialStreamingNetwork
from repro.models.general import GDGR
from repro.churn.lifetime import WeibullLifetime


class TestGossipOnPoisson:
    def test_push_pull_completes_on_pdgr(self):
        net = PDGR(n=120, d=6, seed=0)
        result = gossip_push_pull(net, seed=1, max_rounds=200)
        assert result.completed

    def test_gossip_on_general_model(self):
        net = GDGR(WeibullLifetime(120, shape=0.7), d=6, seed=2, warm_time=500)
        result = gossip_push_pull(net, seed=3, max_rounds=300)
        assert result.completed


class TestPolicyDriverCombinations:
    def test_capped_policy_under_adversarial_churn(self):
        net = AdversarialStreamingNetwork(
            80,
            CappedRegenerationPolicy(d=4, max_in_degree=8),
            strategy="max_degree",
            seed=4,
        )
        net.run_rounds(100)
        net.state.check_invariants()
        assert all(
            net.state.in_slot_count(u) <= 8 for u in net.state.alive_ids()
        )

    def test_capped_policy_in_general_model(self):
        net = GDGR(WeibullLifetime(100, shape=0.6), d=4, seed=5, warm_time=400)
        net.state.check_invariants()

    def test_lossy_flood_on_poisson(self):
        net = PDGR(n=150, d=6, seed=6)
        result = flood_lossy(net, loss=0.2, seed=7, max_rounds=120)
        assert result.completed


class TestCsvExport:
    def test_write_csv_round_trip(self, tmp_path):
        result = ExperimentResult(
            experiment_id="EXP-00",
            title="demo",
            paper_reference="none",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}, {"a": 3, "b": None}],
            verdict={"ok": True},
        )
        path = result.write_csv(tmp_path)
        content = path.read_text().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2.5"
        assert "# ok=True" in content

    def test_write_csv_ignores_extra_row_keys(self, tmp_path):
        result = ExperimentResult(
            experiment_id="EXP-00",
            title="demo",
            paper_reference="none",
            columns=["a"],
            rows=[{"a": 1, "hidden": "x"}],
        )
        content = result.write_csv(tmp_path).read_text()
        assert "hidden" not in content

    def test_creates_directory(self, tmp_path):
        result = ExperimentResult(
            experiment_id="EXP-00",
            title="demo",
            paper_reference="none",
            columns=["a"],
            rows=[],
        )
        path = result.write_csv(tmp_path / "nested" / "dir")
        assert path.exists()


class TestCliCsvFlag:
    def test_cli_writes_csv(self, tmp_path, capsys):
        from repro.cli.main import main as cli_main

        code = cli_main(["EXP-07", "--csv", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "EXP-07.csv").exists()
        assert "csv:" in capsys.readouterr().out


class TestSDGRGossipLongRun:
    def test_repeated_flooding_runs_compose(self):
        """Several processes can run back-to-back on one network (state
        stays clean between them)."""
        net = SDGR(n=100, d=6, seed=8)
        net.run_rounds(100)
        from repro.flooding import flood_discrete

        first = flood_discrete(net)
        second = flood_discrete(net)
        assert first.completed and second.completed
        net.state.check_invariants()

    def test_snapshot_before_after_flooding_differs(self):
        net = SDGR(n=100, d=4, seed=9)
        net.run_rounds(100)
        before = net.snapshot()
        from repro.flooding import flood_discrete

        flood_discrete(net)
        after = net.snapshot()
        assert before.nodes != after.nodes  # churn continued during flooding


class TestExperimentResultEdgeCases:
    def test_to_text_without_rows_or_verdict(self):
        result = ExperimentResult(
            experiment_id="EXP-00",
            title="bare",
            paper_reference="ref",
            columns=[],
        )
        text = result.to_text()
        assert "EXP-00" in text
        assert "elapsed" in text

    def test_passed_with_no_bools_is_true(self):
        result = ExperimentResult(
            experiment_id="E", title="t", paper_reference="p", columns=[],
            verdict={"value": 1.5},
        )
        assert result.passed()
