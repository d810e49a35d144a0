"""Experiment registry.

Every experiment module registers a runner with :func:`register`; the CLI
and the benchmark harness look experiments up by id.  Runners have the
uniform signature ``run(quick: bool = True, seed: int = 0) ->
ExperimentResult``: *quick* selects CI-scale parameters, full mode uses the
EXPERIMENTS.md configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from pathlib import Path

from repro.core.backend import use_backend
from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult
from repro.sweep import use_sweep_options


class ExperimentRunner(Protocol):
    def __call__(self, quick: bool = True, seed: int = 0) -> ExperimentResult: ...


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_reference: str
    runner: ExperimentRunner


_REGISTRY: dict[str, Experiment] = {}


def register(
    experiment_id: str, title: str, paper_reference: str
) -> Callable[[ExperimentRunner], ExperimentRunner]:
    """Decorator registering *runner* under *experiment_id*."""

    def decorator(runner: ExperimentRunner) -> ExperimentRunner:
        if experiment_id in _REGISTRY:
            raise ExperimentError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = Experiment(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            runner=runner,
        )
        return runner

    return decorator


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment (raises ExperimentError if unknown)."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None


def all_experiments() -> list[Experiment]:
    """All registered experiments, sorted by id."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def run_experiment(
    experiment_id: str,
    quick: bool = True,
    seed: int = 0,
    backend: str | None = None,
    jobs: int | None = None,
    store: str | Path | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run one experiment by id.

    *backend* overrides the topology backend for every network the runner
    builds (via :func:`repro.core.backend.use_backend`, so experiment
    signatures stay unchanged); ``None`` keeps the process default.
    *jobs* and *store* configure the ambient sweep options the same way
    (:func:`repro.sweep.use_sweep_options`): every replication sweep the
    runner declares executes on *jobs* worker processes against the
    content-addressed result store at *store*, which serves the cells it
    already holds.  *checkpoint_every* and
    *checkpoint_dir* set the ambient service options
    (:func:`repro.service.use_service_options`), so every scenario
    session the runner builds dumps resumable checkpoints at that
    cadence.
    """
    from repro.service import use_service_options

    with use_backend(backend), use_sweep_options(
        jobs=jobs, store=store
    ), use_service_options(
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir
    ):
        return get_experiment(experiment_id).runner(quick=quick, seed=seed)


def _ensure_loaded() -> None:
    """Import every experiment module so registrations happen."""
    from repro.experiments import (  # noqa: F401
        exp01_isolated,
        exp02_large_set_expansion,
        exp03_expander_regeneration,
        exp04_flooding_failure,
        exp05_flooding_partial,
        exp06_flooding_complete,
        exp07_degrees,
        exp08_poisson_churn,
        exp09_edge_probability,
        exp10_onion_skin,
        exp11_static_baseline,
        exp12_table1,
        exp13_protocol_baselines,
        exp14_p2p_overlay,
        exp15_bounded_degree,
        exp16_adversarial_churn,
        exp17_lifetime_robustness,
    )
