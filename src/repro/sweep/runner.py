"""Sweep execution: one engine, cached, order-canonical.

:func:`run_sweep` turns a :class:`~repro.sweep.spec.SweepSpec` into a
:class:`SweepRunResult` whose cells appear in the spec's canonical grid
order regardless of how they were computed:

* **seeding** — every cell's RNG stream is a pure function of
  ``(sweep.seed, sweep.stream, cell index)``, so execution order cannot
  leak into results;
* **normalization** — every fresh value makes one JSON round trip before
  it is stored, so a value served from the content-addressed store is
  byte-for-byte the value a fresh run would have produced;
* **ordering** — results are assembled by cell index, not completion
  order.

Together these make ``jobs=4`` output bit-identical to ``jobs=1``, and a
warm run bit-identical to a cold one.

**Engine.**  There is one: the fleet's.  :func:`run_sweep` submits the
sweep to the configured result store — or to a throwaway temporary
store when none is configured — and drains it with ``jobs`` workers
(:func:`repro.api.sweeps.run_worker`; in-process for one, a process pool
for more), exactly as ``sweep run`` does.  A configured store therefore
always serves the cells it already holds.  Each cell runs under
:func:`execute_cell`, which pins the task's resolved topology backend.
A cell that raises is *isolated*: its traceback is captured on the cell
result, the remaining cells complete, and the failure surfaces — naming
the cell — when the caller reads :meth:`SweepRunResult.values`.

**Ambient options.**  ``--jobs/--store`` travel from the CLI to the
experiment runners through :func:`use_sweep_options`, mirroring how
``use_backend`` threads the topology backend, so experiment signatures
stay ``run(quick, seed)``.
"""

from __future__ import annotations

import json
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.backend import use_backend
from repro.errors import SweepError
from repro.scenario.spec import ScenarioSpec
from repro.sweep.measurements import get_measurement
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import ResultStore, cell_key, encode_nonfinite
from repro.util.rng import derive_seed


@dataclass(frozen=True)
class SweepOptions:
    """Ambient execution options (the CLI's ``--jobs/--store``)."""

    jobs: int = 1
    store: Path | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.jobs}")


_OPTIONS_STACK: list[SweepOptions] = [SweepOptions()]


def current_sweep_options() -> SweepOptions:
    """The innermost active :class:`SweepOptions`."""
    return _OPTIONS_STACK[-1]


def _with_overrides(
    jobs: int | None, store: str | Path | None
) -> SweepOptions:
    """The ambient options with every non-``None`` override applied."""
    base = current_sweep_options()
    return SweepOptions(
        jobs=base.jobs if jobs is None else int(jobs),
        store=base.store if store is None else Path(store),
    )


@contextmanager
def use_sweep_options(
    jobs: int | None = None,
    store: str | Path | None = None,
) -> Iterator[SweepOptions]:
    """Override the ambient sweep options within a ``with`` block.

    ``None`` arguments inherit the surrounding scope, so nested scopes
    compose (e.g. an experiment pinning ``jobs=1`` for a tiny sweep
    inside a CLI-level ``--jobs 8`` session).
    """
    merged = _with_overrides(jobs, store)
    _OPTIONS_STACK.append(merged)
    try:
        yield merged
    finally:
        _OPTIONS_STACK.pop()


# ----------------------------------------------------------------------
# cell execution (worker side)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellTask:
    """Everything a worker needs to run one cell (plain picklable data)."""

    index: int
    spec_dict: dict[str, Any]
    backend: str
    seed: int
    stream: str
    measure: str
    measure_module: str
    measure_params: dict[str, Any]
    key: str | None = None


def cell_tasks(
    sweep: SweepSpec,
    backend: str,
    keyed: bool = True,
    measure_module: str | None = None,
) -> list[CellTask]:
    """The sweep's cells as self-contained tasks, in canonical order.

    This is the single source of cell identity shared by every executor
    — the in-process runner, pool workers, and multi-host fleet workers
    (:mod:`repro.api`) all build the same tasks, so they compute the
    same store keys and the same results.  *keyed* controls whether
    store keys are computed (uncached runs skip the hashing);
    *measure_module* overrides the registry lookup for workers that
    received the module name out-of-band (e.g. from a submitted sweep
    document) without the measurement registered locally.
    """
    if measure_module is None:
        measure_module = get_measurement(sweep.measure).module
    tasks: list[CellTask] = []
    for cell in sweep.cells():
        spec_dict = cell.spec.to_dict()
        key = None
        if keyed:
            key = cell_key(
                scenario=spec_dict,
                measure=sweep.measure,
                measure_params=sweep.measure_params,
                seed=int(sweep.seed),
                stream=sweep.stream,
                index=cell.index,
                backend=backend,
            )
        tasks.append(
            CellTask(
                index=cell.index,
                spec_dict=spec_dict,
                backend=backend,
                seed=int(sweep.seed),
                stream=sweep.stream,
                measure=sweep.measure,
                measure_module=measure_module,
                measure_params=dict(sweep.measure_params),
                key=key,
            )
        )
    return tasks


def _normalize_value(value: Any) -> Any:
    """Force the value through JSON so fresh == cached, byte for byte.

    Non-finite floats are sentinel-encoded first (``nan`` → ``"NaN"``,
    see :func:`repro.sweep.store.encode_nonfinite`): the serialized
    form stays standard JSON on every implementation, and equality
    between a fresh and a cached value holds even for results that
    would otherwise carry ``NaN`` (which never compares equal).
    """
    try:
        return json.loads(
            json.dumps(encode_nonfinite(value), allow_nan=False)
        )
    except (TypeError, ValueError) as error:
        raise SweepError(
            f"measurement returned a non-JSON-serializable value: {error}"
        ) from error


def execute_cell(task: CellTask) -> tuple[int, Any, str | None, float]:
    """Run one cell; never raises (failures return a traceback string)."""
    start = time.perf_counter()
    try:
        spec = ScenarioSpec.from_dict(task.spec_dict)
        measure = get_measurement(task.measure, task.measure_module)
        seed = derive_seed(task.seed, task.stream, task.index)
        with use_backend(task.backend):
            value = measure.fn(spec, seed, **task.measure_params)
        value = _normalize_value(value)
    except Exception:
        return task.index, None, traceback.format_exc(), (
            time.perf_counter() - start
        )
    return task.index, value, None, time.perf_counter() - start


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell, in canonical grid position."""

    cell: SweepCell
    value: Any
    error: str | None
    elapsed: float
    cached: bool

    @property
    def index(self) -> int:
        return self.cell.index

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepRunResult:
    """All cell results of one sweep run, in canonical grid order."""

    spec: SweepSpec
    cells: tuple[CellResult, ...]
    backend: str
    jobs: int
    elapsed: float

    @property
    def executed(self) -> int:
        return sum(1 for c in self.cells if not c.cached)

    @property
    def from_cache(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def failures(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def raise_if_failed(self) -> None:
        """Surface the first failing cell (its scenario and traceback)."""
        for result in self.cells:
            if not result.ok:
                raise SweepError(
                    f"sweep cell {result.index} "
                    f"(point {result.cell.point}, replica "
                    f"{result.cell.replica}, overrides "
                    f"{dict(result.cell.overrides)!r}) failed:\n{result.error}"
                )

    def values(self) -> list[Any]:
        """Cell values in canonical order (raises on any failed cell)."""
        self.raise_if_failed()
        return [result.value for result in self.cells]

    def value_groups(self) -> list[list[Any]]:
        """Values grouped per grid point: ``groups[point][replica]``."""
        values = self.values()
        replicas = self.spec.replicas
        return [
            values[start : start + replicas]
            for start in range(0, len(values), replicas)
        ]

    def point_overrides(self) -> list[dict[str, Any]]:
        """The raw axis assignments of every grid point, in order."""
        return [dict(overrides) for overrides, _ in self.spec.points()]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def run_sweep(
    sweep: SweepSpec,
    jobs: int | None = None,
    store: str | Path | None = None,
) -> SweepRunResult:
    """Run *sweep* under the ambient options, with optional overrides.

    The workhorse of the ported experiments: a bare ``run_sweep(spec)``
    inside an experiment picks up whatever ``--jobs/--store`` the CLI
    (or an enclosing :func:`use_sweep_options`) configured.  The sweep
    is submitted to the store and drained by ``jobs`` fleet workers (see
    the module docstring); cells the store already held come back with
    ``cached=True``.  With a configured store a fully successful run
    also writes the sweep artifact, exactly as ``sweep run`` would.

    A cell no worker could produce becomes a failed cell: a measurement
    that raised, a worker process that died, or a cell another owner's
    live claim blocks (named, never waited on).
    """
    # Function-local: repro.api.sweeps imports this module.
    from repro.api.sweeps import collect, drain_locally, submit_sweep

    options = _with_overrides(jobs, store)
    start = time.perf_counter()
    scratch = (
        tempfile.TemporaryDirectory(prefix="repro-sweep-")
        if options.store is None
        else nullcontext(options.store)
    )
    with scratch as root:
        submission = submit_sweep(sweep, root)
        rstore = ResultStore(root)
        tasks = submission.tasks()
        cached = (
            set()
            if options.store is None
            else {t.index for t in tasks if rstore.get(t.key) is not None}
        )
        # About four claim batches per worker: few grid scans (one per
        # batch), yet small enough that the pool stays balanced to the
        # end of the grid.
        claim_batch = max(1, -(-len(tasks) // (4 * options.jobs)))
        reports, died = drain_locally(
            submission, options.jobs, claim_batch=claim_batch
        )
        errors: dict[int, str] = {}
        for report in reports:
            for index, error in report.failures:
                errors.setdefault(index, error)  # two workers, one cell

        results = []
        for cell, task in zip(sweep.cells(), tasks):
            payload = rstore.get(task.key)
            if payload is None:
                error = (
                    errors.get(task.index)
                    or died
                    or _missing_reason(rstore, task)
                )
                results.append(CellResult(cell, None, error, 0.0, False))
            else:
                results.append(
                    CellResult(
                        cell,
                        payload["value"],
                        None,
                        float(payload.get("elapsed", 0.0)),
                        task.index in cached,
                    )
                )
        if options.store is not None and all(r.ok for r in results):
            collect(root, submission, timeout=0)
    return SweepRunResult(
        spec=sweep,
        cells=tuple(results),
        backend=submission.backend,
        jobs=options.jobs,
        elapsed=time.perf_counter() - start,
    )


def _missing_reason(store: ResultStore, task: CellTask) -> str:
    """Why a cell no worker failed still has no result after the drain."""
    info = store.claim_info(task.key)
    if info is None:
        return (
            "no result after the drain: another worker released the "
            "cell without committing one"
        )
    return (
        f"cell is claimed by {info['owner']!r} (claim TTL "
        f"{info['ttl']:g}s, age {info['age']:.0f}s); not waited on — "
        "rerun once that owner finishes or its claim expires"
    )


# Re-exported for forward compatibility with callers that only need the
# dataclasses.
__all__ = [
    "CellResult",
    "CellTask",
    "SweepOptions",
    "SweepRunResult",
    "cell_tasks",
    "current_sweep_options",
    "execute_cell",
    "run_sweep",
    "use_sweep_options",
]
