"""The sweep plane: declarative grids, parallel execution, cached results.

The paper's claims are statements over *ensembles* — many seeds × many
``(n, d, churn, policy)`` points — and this package is the layer every
such ensemble runs on:

* :class:`~repro.sweep.spec.SweepSpec` — a frozen, JSON-round-trippable
  grid over :class:`~repro.scenario.spec.ScenarioSpec` axes with named
  deterministic seed streams (one child per cell, no ``seed + k``
  arithmetic);
* :mod:`~repro.sweep.measurements` — the registry of per-cell
  measurement functions a sweep names declaratively;
* :func:`~repro.sweep.runner.run_sweep` — execution on the fleet
  engine (:mod:`repro.api.sweeps`: ``jobs`` workers draining a result
  store) with per-cell timing and failure isolation, returning results
  in canonical grid order so ``--jobs 4`` output is bit-identical to
  ``--jobs 1``;
* :class:`~repro.sweep.store.ResultStore` — a content-addressed on-disk
  cache (sha256 of scenario + measurement + seed identity + version)
  that always serves the cells it holds, making interrupted sweeps
  resumable and warm re-runs free.

Quick start::

    from repro.scenario import ScenarioSpec
    from repro.sweep import SweepSpec, run_sweep

    sweep = SweepSpec(
        base=ScenarioSpec(churn="streaming", policy="none", n=400,
                          horizon=400),
        axes=[("d", (1, 2, 3, 4))],
        replicas=8,
        seed=0,
        stream="isolated-vs-d",
        measure="isolated_fraction",
    )
    groups = run_sweep(sweep, jobs=4).value_groups()  # one list per d
"""

from repro.sweep.artifact import (
    ARTIFACT_FORMAT,
    SweepResult,
    artifact_path,
    sweep_key,
)
from repro.sweep.measurements import (
    Measurement,
    fraction_at_round,
    get_measurement,
    measurement,
    measurement_names,
)
from repro.sweep.runner import (
    CellResult,
    CellTask,
    SweepOptions,
    SweepRunResult,
    cell_tasks,
    current_sweep_options,
    execute_cell,
    run_sweep,
    use_sweep_options,
)
from repro.sweep.spec import SweepAxis, SweepCell, SweepSpec
from repro.sweep.store import (
    DEFAULT_CLAIM_TTL,
    ResultStore,
    cell_key,
    decode_nonfinite,
    default_host,
    encode_nonfinite,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "CellResult",
    "CellTask",
    "DEFAULT_CLAIM_TTL",
    "Measurement",
    "ResultStore",
    "SweepAxis",
    "SweepCell",
    "SweepOptions",
    "SweepResult",
    "SweepRunResult",
    "SweepSpec",
    "artifact_path",
    "cell_key",
    "cell_tasks",
    "current_sweep_options",
    "decode_nonfinite",
    "default_host",
    "encode_nonfinite",
    "execute_cell",
    "fraction_at_round",
    "get_measurement",
    "measurement",
    "measurement_names",
    "run_sweep",
    "sweep_key",
    "use_sweep_options",
]
