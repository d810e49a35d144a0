"""Experiment harness — one module per table/figure of the reproduction.

Run from the command line::

    python -m repro.cli --list
    python -m repro.cli EXP-01
    python -m repro.cli --all
    python -m repro.cli --all --full   # EXPERIMENTS.md scale

or programmatically::

    from repro.experiments import run_experiment
    result = run_experiment("EXP-06", quick=True, seed=0)
    print(result.to_text())
"""

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    get_experiment,
    run_experiment,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "run_experiment",
]
