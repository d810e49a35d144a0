"""Tests for sweep execution: parallelism, caching, failure isolation."""

from __future__ import annotations

import json

import pytest

from repro.errors import SweepError
from repro.experiments import run_experiment
from repro.scenario import ScenarioSpec, simulate
from repro.sweep import (
    ResultStore,
    SweepSpec,
    cell_key,
    current_sweep_options,
    measurement,
    run_sweep,
    use_sweep_options,
)
from repro.util.rng import SeedLike, make_rng

BASE = ScenarioSpec(churn="streaming", policy="none", n=40, d=2, horizon=10)


@measurement("pytest-echo")
def echo(spec: ScenarioSpec, seed: SeedLike, offset: float = 0.0) -> dict:
    """Deterministic cheap cell: one draw from the cell's seed stream."""
    return {"draw": float(make_rng(seed).random()) + offset, "d": spec.d}


@measurement("pytest-fail-at-d3")
def fail_at_d3(spec: ScenarioSpec, seed: SeedLike) -> dict:
    if spec.d == 3:
        raise ValueError("d=3 cell exploded (intentionally)")
    return {"d": spec.d}


@measurement("pytest-unserializable")
def unserializable(spec: ScenarioSpec, seed: SeedLike) -> object:
    return object()


@measurement("pytest-kill-worker-at-d3")
def kill_worker_at_d3(spec: ScenarioSpec, seed: SeedLike) -> dict:
    if spec.d == 3:
        import os

        os._exit(1)  # simulate an OOM-killed / segfaulted worker
    return {"d": spec.d}


def small_sweep(**changes) -> SweepSpec:
    defaults = dict(
        base=BASE,
        axes=[("d", (2, 3))],
        replicas=3,
        seed=0,
        stream="pytest-sweep",
        measure="pytest-echo",
    )
    defaults.update(changes)
    return SweepSpec(**defaults)


class TestBitIdentity:
    def test_parallel_equals_sequential_cheap_cells(self):
        sweep = small_sweep()
        assert run_sweep(sweep, jobs=1).values() == run_sweep(
            sweep, jobs=2
        ).values()

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_parallel_equals_sequential_real_simulations(self, backend):
        # Full churn + flooding cells on each topology backend: the
        # acceptance bar of the sweep plane.  Workers resolve *backend*
        # through the shipped cell payload / REPRO_BACKEND.
        sweep = SweepSpec(
            base=ScenarioSpec(
                churn="streaming", policy="regen", n=50, d=4, horizon=50,
                protocol="discrete", backend=backend,
            ),
            axes=[("d", (3, 4))],
            replicas=2,
            seed=1,
            stream="pytest-flood",
            measure="flood_stats",
        )
        sequential = run_sweep(sweep, jobs=1)
        parallel = run_sweep(sweep, jobs=2)
        assert sequential.values() == parallel.values()
        assert sequential.backend == parallel.backend == backend

    def test_results_in_canonical_order(self):
        sweep = small_sweep()
        result = run_sweep(sweep, jobs=2)
        assert [c.index for c in result.cells] == list(range(6))
        assert [c.value["d"] for c in result.cells] == [2, 2, 2, 3, 3, 3]

    def test_value_groups_shape(self):
        groups = run_sweep(small_sweep()).value_groups()
        assert len(groups) == 2
        assert all(len(group) == 3 for group in groups)


class TestStore:
    def test_cold_run_populates_store(self, tmp_path):
        sweep = small_sweep()
        result = run_sweep(sweep, store=tmp_path)
        assert result.executed == sweep.num_cells
        assert len(ResultStore(tmp_path)) == sweep.num_cells

    def test_resume_executes_zero_cells(self, tmp_path):
        sweep = small_sweep()
        cold = run_sweep(sweep, store=tmp_path)
        warm = run_sweep(sweep, store=tmp_path)
        assert warm.executed == 0
        assert warm.from_cache == sweep.num_cells
        assert warm.values() == cold.values()

    def test_partial_resume_mixes_cache_and_execution(self, tmp_path):
        sweep = small_sweep()
        cold = run_sweep(sweep, store=tmp_path)
        store = ResultStore(tmp_path)
        victims = list(store.keys())[:2]
        for key in victims:
            store.path_for(key).unlink()
        warm = run_sweep(sweep, store=tmp_path, jobs=2)
        assert warm.executed == 2
        assert warm.from_cache == sweep.num_cells - 2
        assert warm.values() == cold.values()

    def test_changed_identity_changes_key(self):
        scenario = BASE.to_dict()
        base_args = dict(
            scenario=scenario, measure="m", measure_params={},
            seed=0, stream="s", index=0, backend="dict",
        )
        key = cell_key(**base_args)
        for change in (
            {"seed": 1},
            {"stream": "other"},
            {"index": 1},
            {"backend": "array"},
            {"measure": "m2"},
            {"measure_params": {"x": 1}},
        ):
            assert cell_key(**{**base_args, **change}) != key

    def test_corrupted_entries_recovered(self, tmp_path):
        sweep = small_sweep()
        cold = run_sweep(sweep, store=tmp_path)
        store = ResultStore(tmp_path)
        keys = list(store.keys())
        # Three corruption flavours: truncated JSON, valid JSON of the
        # wrong shape, and a payload whose recorded key mismatches.
        store.path_for(keys[0]).write_text("{'not json")
        store.path_for(keys[1]).write_text(json.dumps({"value": 1}))
        wrong = dict(store.get(keys[2]))
        wrong["key"] = "0" * 64
        store.path_for(keys[2]).write_text(json.dumps(wrong))
        warm = run_sweep(sweep, store=tmp_path)
        assert warm.executed == 3
        assert warm.values() == cold.values()
        # The corrupted entries were rewritten and now serve cleanly.
        healed = run_sweep(sweep, store=tmp_path)
        assert healed.executed == 0

    def test_cached_values_identical_to_fresh(self, tmp_path):
        # Float round-tripping: a value served from JSON-on-disk must be
        # bit-identical to the normalized fresh value.
        sweep = small_sweep(measure_params={"offset": 0.1234567890123457})
        cold = run_sweep(sweep, store=tmp_path)
        warm = run_sweep(sweep, store=tmp_path)
        assert cold.values() == warm.values()


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_is_isolated(self, jobs):
        sweep = small_sweep(measure="pytest-fail-at-d3")
        result = run_sweep(sweep, jobs=jobs)
        assert len(result.failures) == 3  # the three d=3 replicas
        healthy = [c for c in result.cells if c.ok]
        assert len(healthy) == 3
        assert all(c.value["d"] == 2 for c in healthy)

    def test_values_surfaces_the_failing_cell(self):
        result = run_sweep(small_sweep(measure="pytest-fail-at-d3"))
        with pytest.raises(SweepError) as excinfo:
            result.values()
        message = str(excinfo.value)
        assert "cell 3" in message
        assert "d=3 cell exploded" in message
        assert "'d': 3" in message  # the overrides identify the cell

    def test_failures_do_not_poison_the_store(self, tmp_path):
        sweep = small_sweep(measure="pytest-fail-at-d3")
        run_sweep(sweep, store=tmp_path)
        assert len(ResultStore(tmp_path)) == 3  # only the healthy cells

    def test_crashed_worker_is_isolated_not_fatal(self):
        # A worker that dies outright (no Python exception to pickle —
        # the BrokenProcessPool path) must surface as cell failures,
        # not abort the sweep.
        sweep = small_sweep(measure="pytest-kill-worker-at-d3")
        result = run_sweep(sweep, jobs=2)  # jobs>1: the kill must not
        # take the test process down, only a pool worker
        assert len(result.failures) >= 3  # all d=3 cells at minimum
        assert any(
            "worker process died" in failure.error
            for failure in result.failures
        )
        with pytest.raises(SweepError):
            result.values()

    def test_cell_claimed_elsewhere_fails_without_waiting(self, tmp_path):
        # A live claim by another owner blocks one cell: run_sweep names
        # the owner and the TTL instead of dropping or waiting on it.
        sweep = small_sweep()
        run_sweep(sweep, store=tmp_path)
        store = ResultStore(tmp_path)
        victim = list(store.keys())[0]
        store.path_for(victim).unlink()
        assert store.claim(victim, owner="elsewhere", ttl=600.0)
        result = run_sweep(sweep, store=tmp_path)
        assert len(result.failures) == 1
        assert "'elsewhere'" in result.failures[0].error
        assert "TTL 600s" in result.failures[0].error
        assert store.claim_info(victim)["owner"] == "elsewhere"

    def test_unserializable_value_is_a_cell_failure(self):
        result = run_sweep(small_sweep(measure="pytest-unserializable"))
        assert len(result.failures) == result.spec.num_cells
        assert "non-JSON-serializable" in result.failures[0].error


class TestAmbientOptions:
    def test_defaults(self):
        options = current_sweep_options()
        assert options.jobs == 1
        assert options.store is None

    def test_nesting_inherits_unset_fields(self, tmp_path):
        with use_sweep_options(jobs=4, store=tmp_path):
            with use_sweep_options(jobs=2):
                options = current_sweep_options()
                assert options.jobs == 2
                assert options.store == tmp_path
            assert current_sweep_options().jobs == 4
        assert current_sweep_options().jobs == 1
        assert current_sweep_options().store is None

    def test_run_sweep_picks_up_ambient_options(self, tmp_path):
        sweep = small_sweep()
        with use_sweep_options(store=tmp_path):
            run_sweep(sweep)
        with use_sweep_options(store=tmp_path):
            warm = run_sweep(sweep)
        assert warm.executed == 0

    def test_run_experiment_threads_options(self, tmp_path):
        cold = run_experiment("EXP-01", quick=True, seed=0, store=tmp_path)
        warm = run_experiment(
            "EXP-01", quick=True, seed=0, jobs=2, store=tmp_path
        )
        assert warm.rows == cold.rows
        assert warm.verdict == cold.verdict


class TestRunnerObject:
    def test_runner_is_reusable(self, tmp_path):
        sweep = small_sweep()
        first = run_sweep(sweep, jobs=1, store=tmp_path)
        second = run_sweep(sweep, jobs=1, store=tmp_path)
        assert first.executed == sweep.num_cells
        assert second.executed == 0
        assert first.values() == second.values()

    def test_rejects_bad_jobs(self):
        with pytest.raises(SweepError):
            run_sweep(small_sweep(), jobs=0)

    def test_per_cell_timing_recorded(self):
        result = run_sweep(small_sweep())
        assert all(c.elapsed >= 0.0 for c in result.cells)
        assert result.elapsed > 0.0


class TestScenarioSeedParity:
    def test_cell_equals_direct_simulation(self):
        # A sweep cell must reproduce exactly what a hand-rolled
        # simulate(spec, seed=derive_seed(...)) loop would measure.
        sweep = SweepSpec(
            base=ScenarioSpec(
                churn="streaming", policy="none", n=40, d=2, horizon=40
            ),
            replicas=2,
            seed=5,
            stream="parity",
            measure="network_summary",
        )
        result = run_sweep(sweep)
        for cell_result in result.cells:
            sim = simulate(
                cell_result.cell.spec, seed=sweep.cell_seed(cell_result.index)
            )
            view = sim.csr_view()
            assert cell_result.value == {
                "alive": view.n,
                "edges": view.num_edges(),
                "time": sim.network.now,
            }
