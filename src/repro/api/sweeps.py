"""The programmatic sweep API: submit, work, observe, reduce.

This is the engine surface of the fleet-scale sweep plane — no argparse,
no printing; the CLI (:mod:`repro.cli`) is one consumer, a notebook or a
scheduler is another.  The lifecycle:

1. :func:`submit_sweep` pins a sweep's identity (its
   :func:`~repro.sweep.artifact.sweep_key`) and records the spec
   document under ``<store>/sweeps/<key>.spec.json`` so any host that
   can reach the store can work on it knowing only the key.
2. :func:`run_worker` drains the grid: for each cell without a result it
   tries to *claim* the cell (``O_EXCL`` on ``<cell>.claim``, expired
   claims taken over — see :meth:`repro.sweep.store.ResultStore.claim`),
   executes the claimed cell (:func:`repro.sweep.runner.execute_cell`),
   commits via :meth:`~repro.sweep.store.ResultStore.put`, and releases
   the claim.  N workers on N hosts need no coordination beyond the
   shared store.
3. :func:`sweep_status` reports progress without touching anything.
4. :func:`collect` (the *reducer*) polls until every cell has a result,
   assembles the canonical-order :class:`~repro.sweep.artifact.
   SweepResult`, and writes the sweep artifact.

This is the only sweep engine.  :func:`drain_locally` is its only
single-host launcher: one worker in-process, or a process pool of N
:func:`run_worker` calls.  :func:`run_fleet` (``sweep run``) composes
submit, that launcher and the reducer; :func:`repro.sweep.runner.
run_sweep` (experiments, ``--sweep``, ``--jobs N``) composes submit and
the launcher over the configured store, or a throwaway one.  ``--jobs
N`` is therefore literally a local fleet of N workers draining one
store, which is why its output is byte-identical to a sequential
run's — there is no separate parallel code path to drift.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.core.backend import resolve_backend_name
from repro.errors import SweepError
from repro.sweep.artifact import (
    ARTIFACT_FORMAT,
    SweepResult,
    submitted_spec_path,
    sweep_key,
)
from repro.sweep.runner import CellTask, cell_tasks, execute_cell
from repro.sweep.spec import SweepSpec
from repro.sweep.store import (
    DEFAULT_CLAIM_TTL,
    ResultStore,
    atomic_write_text,
    canonical_json,
    default_host,
)
from repro import __version__ as _REPRO_VERSION


@dataclass(frozen=True)
class SweepSubmission:
    """A sweep registered against a store: everything a worker needs."""

    store: Path
    key: str
    sweep: SweepSpec
    backend: str
    measure_module: str

    def tasks(self) -> list[CellTask]:
        """The submission's cells as keyed tasks, in canonical order."""
        return cell_tasks(
            self.sweep,
            self.backend,
            keyed=True,
            measure_module=self.measure_module,
        )


@dataclass(frozen=True)
class WorkerReport:
    """What one :func:`run_worker` call did to the grid."""

    host: str
    key: str
    executed: tuple[int, ...]
    failures: tuple[tuple[int, str], ...]
    cached: int
    lost_claims: int
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> None:
        if self.failures:
            index, error = self.failures[0]
            raise SweepError(
                f"sweep cell {index} failed on worker {self.host}:\n{error}"
            )


@dataclass(frozen=True)
class SweepStatus:
    """A point-in-time census of one sweep's grid on a store."""

    key: str
    total: int
    done: int
    claimed: int
    pending: int
    missing: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return self.done == self.total


def submit_sweep(sweep: SweepSpec, store: str | Path) -> SweepSubmission:
    """Register *sweep* against *store* and return its submission.

    Derives the sweep key and durably writes the spec document under
    ``sweeps/<key>.spec.json``; the document records the backend
    (``"array"``) every cell key carries.
    Submission is idempotent: the document is content-addressed by the
    key, so re-submitting the same sweep is a no-op and two hosts
    racing the submission write identical bytes.
    """
    from repro.sweep.measurements import get_measurement

    resolved = resolve_backend_name(sweep.base.backend)
    key = sweep_key(sweep)
    measure_module = get_measurement(sweep.measure).module
    path = submitted_spec_path(store, key)
    if not path.exists():
        document = {
            "format": ARTIFACT_FORMAT,
            "version": _REPRO_VERSION,
            "key": key,
            "backend": resolved,
            "measure_module": measure_module,
            "sweep": sweep.to_dict(),
        }
        atomic_write_text(path, canonical_json(document) + "\n")
    return SweepSubmission(
        store=Path(store),
        key=key,
        sweep=sweep,
        backend=resolved,
        measure_module=measure_module,
    )


def load_submission(store: str | Path, key: str) -> SweepSubmission:
    """Rehydrate a submission by key (the cross-host entry point)."""
    path = submitted_spec_path(store, key)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise SweepError(
            f"no readable submitted sweep {key!r} under {store!s}: {error}"
        ) from error
    sweep = SweepSpec.from_dict(data["sweep"])
    # Only "array" loads: a store keyed "dict" raises, naming the oracle.
    backend = resolve_backend_name(str(data["backend"]))
    recomputed = sweep_key(sweep)
    if recomputed != key:
        raise SweepError(
            f"submitted sweep {key!r} does not verify: this library "
            f"version ({_REPRO_VERSION}) derives {recomputed!r} — the "
            "document was written by a different version or corrupted; "
            "re-submit the sweep"
        )
    measure_module = data.get("measure_module") or "repro.sweep.measurements"
    return SweepSubmission(
        store=Path(store),
        key=key,
        sweep=sweep,
        backend=backend,
        measure_module=str(measure_module),
    )


def _resolve_submission(
    store: str | Path, sweep: SweepSpec | SweepSubmission | str
) -> SweepSubmission:
    """Accept a spec, a submission, or a bare key; return the submission."""
    if isinstance(sweep, SweepSubmission):
        return sweep
    if isinstance(sweep, SweepSpec):
        return submit_sweep(sweep, store)
    if isinstance(sweep, str):
        return load_submission(store, sweep)
    raise SweepError(
        f"expected a SweepSpec, SweepSubmission, or sweep key, got {sweep!r}"
    )


#: Cells a worker claims per grid scan (see :func:`run_worker`).
DEFAULT_CLAIM_BATCH = 16


def run_worker(
    store: str | Path,
    sweep: SweepSpec | SweepSubmission | str,
    host: str | None = None,
    ttl: float = DEFAULT_CLAIM_TTL,
    max_cells: int | None = None,
    wait: float | None = None,
    poll: float = 0.2,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
) -> WorkerReport:
    """Drain claimable cells of *sweep* from *store*; return a report.

    The worker makes passes over the grid in canonical order.  Per pass
    it claims up to *claim_batch* result-less cells in one scan, then
    executes the claimed batch — claiming in bulk amortizes the scan
    (one walk of the grid per *claim_batch* cells instead of per cell)
    and keeps racing workers off each other's runways.  Every claim
    carries the usual TTL and is released (or taken over after expiry)
    cell by cell — a worker that dies mid-batch forfeits only its
    unexecuted claims after one TTL.  Before each cell the worker
    refreshes the claims still pending in its batch, but only once more
    than ``ttl / 4`` has passed on its monotonic clock since the last
    refresh (or since just before the batch's first claim): a cell must
    therefore finish within three quarters of *ttl*, or its batch-mates'
    claims may expire.  A cell whose refresh fails was taken over by a
    peer: it is skipped, counted in ``lost_claims`` and left claimed by
    its new owner.  When a pass finds work left but nothing
    claimable, the worker returns — unless *wait* seconds of patience
    remain, in which case it sleeps *poll* and rescans (the path by
    which expired claims of crashed peers are taken over).  A cell whose
    measurement raises is recorded in the report and never retried by
    this worker; the store is left untouched (failures do not poison the
    cache), so another worker — or a rerun after the bug is fixed — can
    still claim it.

    *max_cells* bounds how many cells this call executes (None =
    unbounded), which makes a worker preemptible on schedulers that
    meter work.
    """
    start = time.perf_counter()
    submission = _resolve_submission(store, sweep)
    rstore = ResultStore(submission.store)
    me = host or default_host()
    tasks = submission.tasks()
    if claim_batch < 1:
        raise SweepError(f"claim_batch must be >= 1, got {claim_batch}")

    executed: list[int] = []
    failures: list[tuple[int, str]] = []
    failed: set[int] = set()
    cached = 0
    lost_claims = 0
    deadline = None if wait is None else time.monotonic() + float(wait)
    first_pass = True

    while True:
        progress = False
        missing = 0
        batch: list[CellTask] = []
        budget = (
            claim_batch
            if max_cells is None
            else min(claim_batch, max_cells - len(executed))
        )
        for task in tasks:
            if task.index in failed:
                continue
            if rstore.get(task.key) is not None:
                if first_pass:
                    cached += 1
                continue
            missing += 1
            if len(batch) >= budget:
                continue  # keep censusing; this scan's claims are full
            if not batch:
                refreshed = time.monotonic()
            if not rstore.claim(task.key, owner=me, ttl=ttl):
                continue
            # The result may have landed between our get and claim (a
            # peer committing is what releases its claim).
            if rstore.get(task.key) is not None:
                lost_claims += 1
                missing -= 1
                rstore.release(task.key, me)
                continue
            batch.append(task)
        lost: set[int] = set()
        for position, task in enumerate(batch):
            now = time.monotonic()
            if now - refreshed > ttl / 4:
                # Refresh every claim still waiting behind this cell, so
                # a long cell cannot expire the rest of the batch.
                refreshed = now
                for pending in batch[position:]:
                    if pending.index not in lost and not rstore.heartbeat(
                        pending.key, me
                    ):
                        lost.add(pending.index)  # a peer took it over
            if task.index in lost:
                lost_claims += 1
                continue
            try:
                index, value, error, elapsed = execute_cell(task)
                if error is None:
                    rstore.put(
                        task.key,
                        value,
                        elapsed,
                        scenario=task.spec_dict,
                        measure=task.measure,
                        measure_params=task.measure_params,
                        seed=task.seed,
                        stream=task.stream,
                        cell=task.index,
                        backend=task.backend,
                        host=me,
                    )
                    executed.append(index)
                else:
                    failures.append((index, error))
                    failed.add(index)
                progress = True
                missing -= 1
            finally:
                rstore.release(task.key, me)
        first_pass = False
        budget_left = max_cells is None or len(executed) < max_cells
        if missing == 0 or not budget_left:
            break
        if not progress:
            if deadline is None or time.monotonic() >= deadline:
                break
            time.sleep(poll)

    return WorkerReport(
        host=me,
        key=submission.key,
        executed=tuple(executed),
        failures=tuple(failures),
        cached=cached,
        lost_claims=lost_claims,
        elapsed=time.perf_counter() - start,
    )


def sweep_status(
    store: str | Path,
    sweep: SweepSpec | SweepSubmission | str,
) -> SweepStatus:
    """A read-only census: done / claimed / pending cells of *sweep*."""
    submission = _resolve_submission(store, sweep)
    rstore = ResultStore(submission.store)
    done = 0
    claimed = 0
    missing: list[int] = []
    for task in submission.tasks():
        if rstore.get(task.key) is not None:
            done += 1
            continue
        missing.append(task.index)
        info = rstore.claim_info(task.key)
        if info is not None and not info["expired"]:
            claimed += 1
    total = submission.sweep.num_cells
    return SweepStatus(
        key=submission.key,
        total=total,
        done=done,
        claimed=claimed,
        pending=total - done - claimed,
        missing=tuple(missing),
    )


def collect(
    store: str | Path,
    sweep: SweepSpec | SweepSubmission | str,
    timeout: float | None = None,
    poll: float = 0.5,
    host: str | None = None,
    write: bool = True,
) -> SweepResult:
    """Reduce *sweep*: wait for a full grid, then write its artifact.

    Polls the store every *poll* seconds until every cell has a result
    (*timeout* ``None`` waits forever; ``0`` demands completeness now),
    then assembles the :class:`~repro.sweep.artifact.SweepResult` in
    canonical order and — unless *write* is False — durably writes it
    to ``sweeps/<key>.json``.  The reducer never executes cells; pair
    it with at least one worker.  Reduction is deterministic in the
    canonical core: whoever reduces, whatever the worker schedule, the
    core bytes (and digest) come out identical.
    """
    submission = _resolve_submission(store, sweep)
    rstore = ResultStore(submission.store)
    tasks = submission.tasks()
    deadline = (
        None if timeout is None else time.monotonic() + float(timeout)
    )

    while True:
        payloads = []
        missing = []
        for task in tasks:
            payload = rstore.get(task.key)
            if payload is None:
                missing.append(task.index)
            else:
                payloads.append(payload)
        if not missing:
            break
        if deadline is not None and time.monotonic() >= deadline:
            raise SweepError(
                f"sweep {submission.key[:12]}… incomplete after "
                f"{timeout}s: {len(missing)}/{len(tasks)} cells have no "
                f"result (indices {missing[:10]}"
                f"{'…' if len(missing) > 10 else ''}) — are workers "
                "running, or did one fail? (worker failures are "
                "reported by run_worker, not stored)"
            )
        time.sleep(poll)

    result = SweepResult(
        key=submission.key,
        sweep=submission.sweep.to_dict(),
        backend=submission.backend,
        cell_keys=tuple(task.key for task in tasks),
        values=tuple(payload["value"] for payload in payloads),
        elapsed=tuple(
            float(payload.get("elapsed", 0.0)) for payload in payloads
        ),
        hosts=tuple(payload.get("host") for payload in payloads),
        reduced_by=host or default_host(),
    )
    if write:
        result.write(submission.store)
        rstore.sweep_orphans()  # reduction is the natural hygiene point
    return result


def gc_store(store: str | Path, yes: bool = False) -> dict:
    """Prune result cells unreachable from any submitted sweep.

    Walks every ``sweeps/*.spec.json`` under *store*, unions the cell
    keys of their grids (exactly what a worker would execute), and
    flags every stored result — plus its claim file, if any — whose key
    no submitted sweep can reach: leftovers of re-parameterized sweeps,
    abandoned experiments, or older measurement versions.  Dry-run by
    default: nothing is deleted unless *yes*.  Aborts without deleting
    anything when any spec document fails to load or verify —
    reachability computed from a partial census would flag live cells.

    Returns a JSON-ready summary: submitted sweep count, reachable and
    stored cell counts, the unreachable keys, the bytes they occupy
    (``reclaimed_bytes`` once *yes* deletes them), and whether deletion
    ran.
    """
    root = Path(store)
    rstore = ResultStore(root)
    sweeps_dir = root / "sweeps"
    reachable: set[str] = set()
    sweep_keys: list[str] = []
    for spec_path in sorted(sweeps_dir.glob("*.spec.json")):
        key = spec_path.name[: -len(".spec.json")]
        submission = load_submission(root, key)  # raises on corruption
        sweep_keys.append(key)
        reachable.update(task.key for task in submission.tasks())

    unreachable: list[str] = []
    reclaimed = 0
    stored = 0
    for key in rstore.keys():
        stored += 1
        if key in reachable:
            continue
        unreachable.append(key)
        for path in (rstore.path_for(key), rstore.claim_path(key)):
            try:
                reclaimed += path.stat().st_size
            except OSError:
                continue
    if yes:
        for key in unreachable:
            for path in (rstore.path_for(key), rstore.claim_path(key)):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
    return {
        "store": str(root),
        "sweeps": len(sweep_keys),
        "reachable_cells": len(reachable),
        "stored_cells": stored,
        "unreachable_cells": len(unreachable),
        "unreachable_keys": unreachable,
        "reclaimed_bytes": reclaimed,
        "deleted": bool(yes),
    }


# ----------------------------------------------------------------------
# the local fleet (single-host N-worker execution)
# ----------------------------------------------------------------------


def _fleet_worker(
    store: str, key: str, ttl: float, host: str, claim_batch: int
) -> WorkerReport:
    """Module-level so ProcessPoolExecutor can pickle it."""
    return run_worker(store, key, ttl=ttl, host=host, claim_batch=claim_batch)


def drain_locally(
    submission: SweepSubmission,
    workers: int,
    ttl: float = DEFAULT_CLAIM_TTL,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
) -> tuple[list[WorkerReport], str | None]:
    """Drain *submission* with *workers* local workers; return their reports.

    One worker runs in-process; more run as a process pool of
    :func:`run_worker` calls.  This is the only launcher: :func:`run_fleet`
    and :func:`repro.sweep.runner.run_sweep` both drain through it.  The
    second element is ``None``, or — when a worker process died outright
    (OOM kill, segfault, ``os._exit``) and took the pool down — the error
    to charge to every cell left without a result.  The reports of the
    workers the pool killed with it are lost, and so is any claim they
    held: this launcher releases the claims of its own workers whenever
    the drain ends early, so a rerun does not wait out their TTL.
    """
    base_host = default_host()
    hosts = (
        [base_host]
        if workers == 1
        else [f"{base_host}/w{rank}" for rank in range(workers)]
    )
    reports: list[WorkerReport] = []
    died = None
    clean = False
    try:
        if workers == 1:
            reports.append(
                run_worker(
                    submission.store,
                    submission,
                    ttl=ttl,
                    host=base_host,
                    claim_batch=claim_batch,
                )
            )
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _fleet_worker,
                        str(submission.store),
                        submission.key,
                        ttl,
                        host,
                        claim_batch,
                    )
                    for host in hosts
                ]
                for future in futures:
                    try:
                        reports.append(future.result())
                    except BrokenProcessPool as error:
                        died = (
                            "worker process died before returning a "
                            f"result: {error!r}"
                        )
        clean = died is None
    finally:
        if not clean:
            _release_claims(submission, hosts)
    return reports, died


def _release_claims(submission: SweepSubmission, owners: list[str]) -> None:
    """Drop every claim on *submission*'s cells that one of *owners* holds."""
    rstore = ResultStore(submission.store)
    for task in submission.tasks():
        info = rstore.claim_info(task.key)
        if info is not None and info["owner"] in owners:
            rstore.release(task.key, info["owner"])


def run_fleet(
    sweep: SweepSpec,
    store: str | Path,
    workers: int = 2,
    ttl: float = DEFAULT_CLAIM_TTL,
    timeout: float | None = None,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
) -> SweepResult:
    """Submit, drain with *workers* local processes, reduce; one call.

    ``workers=1`` runs the single worker in-process (no pool), so a
    sequential run and an N-worker run differ only in who claims which
    cell — the artifact's canonical core is byte-identical either way.
    Worker failures surface here as a :class:`~repro.errors.SweepError`:
    the first failing cell's traceback, or the death of a worker
    process.
    """
    if workers < 1:
        raise SweepError(f"fleet needs workers >= 1, got {workers}")
    submission = submit_sweep(sweep, store)
    reports, died = drain_locally(submission, workers, ttl, claim_batch)
    if died is not None:
        raise SweepError(died)
    for report in reports:
        report.raise_if_failed()
    return collect(store, submission, timeout=timeout)


__all__ = [
    "DEFAULT_CLAIM_BATCH",
    "SweepStatus",
    "SweepSubmission",
    "WorkerReport",
    "collect",
    "gc_store",
    "load_submission",
    "run_fleet",
    "run_worker",
    "submit_sweep",
    "sweep_status",
]
