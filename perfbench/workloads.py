"""The benchmark's workloads: what one unit of work is, and how it is checked.

* ``sdgr_session`` — one streaming SDGR session as ``repro.scenario``
  runs it: a per-event warm-up, fused churn windows (``fast_rounds``),
  degree and isolated-node views every window, expansion probes every
  other window, cadence checkpoints and one discrete flood at the end.
* ``fleet_sweep`` — one sweep of small SDGR sessions drained by two
  long-lived worker processes through the sweep API (``submit_sweep``,
  ``run_worker`` per worker, ``collect``).

Each unit returns its wall time and the list of problems its checks
found; the checks run after the clock stops.  With a
:class:`~spans.Tracer` the unit also records per-layer self time:
``warmup`` (building the warm network), ``churn`` (churn rounds and
windows, including those a flood steps), ``view`` (CSR view builds),
``analysis`` (the rest of a session run: the observers), ``flood``
(the protocol's own work) and ``persist`` (checkpoint dumps,
result-store I/O, sweep submission and reduction).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import collect, run_worker, submit_sweep
from repro.scenario import ScenarioSpec, Simulation
from repro.sweep import SweepSpec
from repro.sweep.measurements import measurement
from repro.sweep.runner import cell_tasks, execute_cell
from repro.sweep.store import ResultStore

from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

LAYERS = ("warmup", "churn", "view", "analysis", "flood", "persist")
COUNTERS = {"persist_kb": "kB", "flood_rounds": "count"}

#: Tracer of the fleet job running in this worker process, read by the
#: sweep measurement (a registered measurement takes no extra arguments).
_ACTIVE_TRACER: Tracer | None = None


def unit_seed(seed: int, index: int) -> int:
    """The scenario seed of unit *index* in a run seeded with *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _span(tracer: Tracer | None, layer: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(layer)


def _instrument(sim: Simulation, tracer: Tracer | None) -> None:
    """Record the session's churn steps, view builds and checkpoint dumps."""
    if tracer is None:
        return
    network = sim.network
    for name in ("advance_round", "advance_to_time_batched"):
        setattr(network, name, tracer.wrap("churn", getattr(network, name)))
    sim.csr_view = tracer.wrap("view", sim.csr_view)
    sim.save_checkpoint = tracer.wrap("persist", sim.save_checkpoint)


def _flood(sim: Simulation, tracer: Tracer | None):
    with _span(tracer, "flood"):
        result = sim.flood()
    if tracer is not None:
        tracer.count("flood_rounds", result.rounds_run)
    return result


def directory_kb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e3


@dataclass(frozen=True)
class SessionScale:
    """Size of a session unit; observers read every ``every`` rounds."""

    n: int
    d: int
    horizon: int
    every: int


# ----------------------------------------------------------------------
# sdgr_session
# ----------------------------------------------------------------------

SDGR_SCALE = SessionScale(n=2_000, d=8, horizon=400, every=100)
SDGR_PRIME = SessionScale(n=500, d=4, horizon=100, every=50)


def sdgr_unit(
    seed: int, workdir: Path, tracer: Tracer | None, scale: SessionScale = SDGR_SCALE
) -> tuple[float, list[str]]:
    n, d = scale.n, scale.d
    spec = ScenarioSpec(
        churn="streaming",
        policy="regen",
        n=n,
        d=d,
        horizon=scale.horizon,
        fast_rounds=True,
        protocol="discrete",
        backend="array",
        checkpoint_every=2 * scale.every,
        checkpoint_dir=str(workdir),
        seed=seed,
    )
    observers = [
        {"name": "degrees", "params": {"every": scale.every}},
        {"name": "isolated", "params": {"every": scale.every}},
        {
            "name": "expansion",
            "params": {
                "every": 2 * scale.every,
                "seed": seed,
                "max_size": 32,
                "num_random_sets": 50,
                "greedy_restarts": 4,
            },
        },
    ]
    start = time.perf_counter()
    with _span(tracer, "warmup"):
        sim = Simulation(spec, observers=observers)
    _instrument(sim, tracer)
    with _span(tracer, "analysis"):
        sim.run()
    flood = _flood(sim, tracer)
    seconds = time.perf_counter() - start

    problems = []
    results = sim.results()
    windows = scale.horizon // scale.every
    degrees = results["degrees"]["series"]
    isolated = results["isolated"]["series"]
    probes = results["expansion"]["series"]
    if (len(degrees), len(isolated), len(probes)) != (windows, windows, windows // 2):
        problems.append(f"observer windows {len(degrees)}/{len(isolated)}/{len(probes)}")
    if sim.network.num_alive() != n:
        problems.append(f"{sim.network.num_alive()} nodes alive, expected {n}")
    for entry in degrees:
        if not (entry["min_degree"] >= 1 and 2 * d - 1 < entry["mean_degree"] <= 2 * d):
            problems.append(f"degree summary {entry}")
    if any(entry["isolated"] for entry in isolated):
        problems.append("SDGR has isolated nodes")
    if not all(entry["min_ratio"] > 0 for entry in probes):
        problems.append("an expansion probe found a disconnected set")
    if not flood.completed or flood.completion_round > 2 * math.log2(n):
        problems.append(f"flood did not complete in O(log n) rounds: {flood.completion_round}")
    if len(list(workdir.glob("ckpt-*.json"))) != scale.horizon // (2 * scale.every):
        problems.append("missing cadence checkpoints")
    return seconds, problems


# ----------------------------------------------------------------------
# fleet_sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetScale:
    n: int
    d: int
    horizon: int
    cells: int


# Identical cells: the first worker to scan claims a whole batch of
# cells (16 by default), so unequal cells would load one worker more.
FLEET_SCALE = FleetScale(n=300, d=4, horizon=150, cells=32)
FLEET_PRIME = FleetScale(n=200, d=3, horizon=50, cells=1)
FLEET_WORKERS = 2


@measurement("perfbench-session")
def session_cell(spec: ScenarioSpec, seed: Any) -> dict[str, Any]:
    """One fleet cell: a session observed at the horizon, then a flood."""
    tracer = _ACTIVE_TRACER
    with _span(tracer, "warmup"):
        sim = Simulation(spec, observers=["degrees", "isolated"], seed=seed)
    _instrument(sim, tracer)
    with _span(tracer, "analysis"):
        sim.run()
    flood = _flood(sim, tracer)
    results = sim.results()
    return {
        "alive": sim.network.num_alive(),
        "mean_degree": results["degrees"]["final"]["mean_degree"],
        "isolated": results["isolated"]["final"]["isolated"],
        "completion_round": flood.completion_round,
    }


def fleet_sweep(seed: int, scale: FleetScale = FLEET_SCALE) -> SweepSpec:
    return SweepSpec(
        base=ScenarioSpec(
            churn="streaming",
            policy="regen",
            n=scale.n,
            d=scale.d,
            horizon=scale.horizon,
            churn_params={"fast_warm": True},
            protocol="discrete",
            backend="array",
        ),
        replicas=scale.cells,
        seed=seed,
        stream="perfbench-fleet",
        measure="perfbench-session",
    )


_STORE_CALLS = ("get", "put", "claim", "heartbeat", "release")


def fleet_job(
    store: str, key: str, host: str, trace: bool
) -> tuple[Any, dict[str, float], dict[str, float]]:
    """One worker's share of a sweep: ``run_worker`` until the grid is empty.

    Traced jobs also time every result-store call this process makes.
    """
    global _ACTIVE_TRACER
    tracer = Tracer() if trace else None
    originals = {name: getattr(ResultStore, name) for name in _STORE_CALLS}
    if tracer is not None:
        for name, fn in originals.items():
            setattr(ResultStore, name, tracer.wrap("persist", fn))
    _ACTIVE_TRACER = tracer
    try:
        report = run_worker(store, key, host=host)
    finally:
        _ACTIVE_TRACER = None
        for name, fn in originals.items():
            setattr(ResultStore, name, fn)
    seconds, counts = tracer.totals() if tracer is not None else ({}, {})
    return report, seconds, counts


def fleet_unit(
    seed: int,
    workdir: Path,
    tracer: Tracer | None,
    pool: "WorkerPool",
    scale: FleetScale = FLEET_SCALE,
) -> tuple[float, list[str]]:
    sweep = fleet_sweep(seed, scale)
    store = workdir / "store"
    start = time.perf_counter()
    with _span(tracer, "persist"):
        submission = submit_sweep(sweep, store)
    replies = pool.run(
        [(str(store), submission.key, f"w{rank}", tracer is not None)
         for rank in range(pool.size)]
    )
    with _span(tracer, "persist"):
        result = collect(store, submission, timeout=0)
    seconds = time.perf_counter() - start

    problems = []
    executed = 0
    for report, layer_seconds, counts in replies:
        executed += len(report.executed)
        problems.extend(f"cell {i} failed: {error}" for i, error in report.failures)
        if tracer is not None:
            tracer.merge(layer_seconds, counts)
    if executed != sweep.num_cells:
        problems.append(f"{executed} cells executed for {sweep.num_cells}")
    for index, value in enumerate(result.values):
        if (
            value["alive"] != scale.n
            or value["isolated"] != 0
            or not scale.d < value["mean_degree"] <= 2 * scale.d
            or value["completion_round"] is None
        ):
            problems.append(f"cell {index} summary {value}")
    # Recompute one cell in this process: the workers' stored value must
    # be exactly what the measurement yields for that cell's seed.
    task = cell_tasks(sweep, submission.backend)[seed % sweep.num_cells]
    _, value, error, _ = execute_cell(task)
    if error is not None or value != result.values[task.index]:
        problems.append(f"cell {task.index} does not reproduce in-process")
    return seconds, problems


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------


def prime(workload: str, workdir: Path) -> None:
    """Run one small unit of *workload*: imports, first calls, allocator."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sdgr_session":
        sdgr_unit(0, workdir, None, SDGR_PRIME)
    else:
        sweep = fleet_sweep(0, FLEET_PRIME)
        for task in cell_tasks(sweep, "array", keyed=False):
            error = execute_cell(task)[2]
            if error is not None:
                raise RuntimeError(error)
    shutil.rmtree(workdir)


def worker_main() -> None:
    """Body of a worker process: prime, report ready, then run fleet jobs.

    Started as ``python -c ... WORKLOAD WORKDIR``.  Jobs arrive as
    pickles on standard input and replies leave as pickles on the
    original standard output; anything the library prints goes to
    standard error instead.  End of input ends the worker.
    """
    workload, workdir = sys.argv[1:3]
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(kind: str, payload: Any) -> None:
        pickle.dump((kind, payload), replies)
        replies.flush()

    try:
        prime(workload, Path(workdir))
        reply("ready", None)
        while True:
            try:
                job = pickle.load(sys.stdin.buffer)
            except EOFError:
                break
            reply("done", fleet_job(*job))
    except Exception:
        reply("error", traceback.format_exc())


class WorkerPool:
    """Long-lived worker processes, each fed jobs through a pipe.

    Construction returns once every worker has imported the library and
    primed *workload*, so timing it gives the cold-start cost of the
    workload's processes.  :meth:`close` ends every worker and waits for
    it, on error paths too.
    """

    def __init__(self, size: int, workload: str, workdir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE), *filter(None, [env.get("PYTHONPATH")])]
        )
        self.size = size
        self._processes: list[subprocess.Popen] = []
        try:
            for rank in range(size):
                self._processes.append(
                    subprocess.Popen(
                        [sys.executable, "-c", "import workloads; workloads.worker_main()",
                         workload, str(workdir / f"w{rank}")],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        env=env,
                    )
                )
            self._replies()
        except BaseException:
            self.close()
            raise

    def _replies(self) -> list[Any]:
        replies = []
        for process in self._processes:
            try:
                kind, payload = pickle.load(process.stdout)
            except EOFError:
                raise RuntimeError(f"worker process {process.pid} exited") from None
            if kind == "error":
                raise RuntimeError(f"worker process {process.pid} failed:\n{payload}")
            replies.append(payload)
        return replies

    def run(self, jobs: list[tuple]) -> list[Any]:
        """Give one job to each worker; return their results."""
        for process, job in zip(self._processes, jobs, strict=True):
            pickle.dump(job, process.stdin)
            process.stdin.flush()
        return self._replies()

    def close(self) -> None:
        for process in self._processes:
            with contextlib.suppress(OSError):
                process.stdin.close()
        for process in self._processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
