"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sdgr_session --seed 1 --seconds 45 --trace 0

A run has two phases.  *Set-up* starts the workload's worker processes
from a cold interpreter ``SETUP_REPEATS`` times (import the library, run
one small unit).  *Measurement* then runs whole units of the workload
back to back for ``--seconds`` seconds (at least ``MIN_UNITS``), each
seeded from ``--seed`` and its index, and checks every unit's outputs.

``--trace 0`` reports the end-to-end metrics: ``e2e_s``, the time of
one unit, and ``setup_s``, the time of one set-up, both as medians in
reference seconds (below); and ``peak_rss_mb``, the largest resident set
of this process or any worker it started.  ``--trace 1`` instead records
layer spans around the library calls and reports each layer's smallest
per-unit self time in wall seconds (summed over processes for the
fleet), plus the median of the work counters ``persist_kb`` and
``flood_rounds``.

Reference seconds: a fixed, library-free kernel of interpreter and
numpy work (:func:`reference_kernel`) runs before the first and after
every timed set-up or unit, and each timing is divided by the mean of
the two kernel times around it, then scaled by ``REF_SECONDS``, the
kernel's time on the 2-vCPU virtual machine the benchmark was defined
on.  The result reads as seconds on that machine at its normal speed.
Why: on that shared machine other tenants slow the vCPU itself (user
time grows with wall time, so it is not scheduling delay), by up to
1.6x, in phases from a few seconds to whole minutes, so a 30-second run
could fall entirely in a slow phase: over five runs the fastest 0.25-s
``sdgr_session`` unit ranged from 0.24 to 0.40 s.  The kernel slows with
the unit.  Over 180 s of consecutive units split into 20-s blocks, the
block minima of wall time spread by 16% (quartile distance over median;
one block at 1.5x), the block medians of the normalised time by 5.5%.
A change to the library moves the unit time and leaves the kernel, which
imports nothing from it, alone.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The library is imported from ``src/`` next to this directory; without
it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("sdgr_session", "fleet_sweep")
SETUP_REPEATS = 5
MIN_UNITS = 5
#: Time of :func:`reference_kernel` on the machine the benchmark was
#: defined on (2 vCPUs, Python 3.11, numpy 2.4), at its fastest.
REF_SECONDS = 0.045


def reference_kernel() -> float:
    """Wall time of a fixed mix of numpy sorting and dict/list churn."""
    import numpy as np

    start = time.perf_counter()
    keys = np.random.default_rng(12345).integers(0, 1 << 20, 300_000)
    order = np.argsort(keys, kind="stable")
    np.bincount(keys[order] & 4095)
    buckets: dict[int, list[int]] = {}
    for i in range(40_000):
        buckets.setdefault(i % 2000, []).append(i)
    sum(len(bucket) for bucket in buckets.values())
    return time.perf_counter() - start


def reference_seconds(durations: list[float], kernels: list[float]) -> float:
    """Median of *durations* in reference seconds.

    ``kernels[i]`` and ``kernels[i + 1]`` are the kernel times taken
    just before and just after ``durations[i]``.
    """
    return REF_SECONDS * statistics.median(
        duration / ((before + after) / 2)
        for duration, before, after in zip(durations, kernels, kernels[1:])
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads
    from spans import Tracer

    workers = workloads.FLEET_WORKERS if workload == "fleet_sweep" else 1
    setups: list[float] = []
    setup_kernels = [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with workloads.WorkerPool(workers, workload, workdir / "setup"):
            setups.append(time.perf_counter() - start)
        setup_kernels.append(reference_kernel())
    workloads.prime(workload, workdir / "prime")

    unit_seconds: list[float] = []
    unit_kernels: list[float] = []
    layer_totals: list[tuple[dict, dict]] = []
    failed = 0
    with contextlib.ExitStack() as stack:
        if workload == "fleet_sweep":
            pool = stack.enter_context(
                workloads.WorkerPool(workers, workload, workdir / "fleet")
            )
            run_unit = functools.partial(workloads.fleet_unit, pool=pool)
        else:
            run_unit = workloads.sdgr_unit
        unit_kernels.append(reference_kernel())
        began = time.perf_counter()
        index = 0
        while index < MIN_UNITS or time.perf_counter() - began < seconds:
            tracer = Tracer() if trace else None
            unit_dir = workdir / f"u{index}"
            unit_dir.mkdir(parents=True)
            gc.collect()
            elapsed, problems = run_unit(
                workloads.unit_seed(seed, index), unit_dir, tracer
            )
            unit_kernels.append(reference_kernel())
            if tracer is not None:
                tracer.count("persist_kb", workloads.directory_kb(unit_dir))
                layer_totals.append(tracer.totals())
            shutil.rmtree(unit_dir)
            unit_seconds.append(elapsed)
            if problems:
                failed += 1
                print(f"unit {index} failed: {problems}", file=sys.stderr)
            index += 1

    if trace:
        metrics = {
            f"{layer}_s": _metric(min(s.get(layer, 0.0) for s, _ in layer_totals), "s")
            for layer in workloads.LAYERS
        }
        for name, unit in workloads.COUNTERS.items():
            metrics[name] = _metric(
                statistics.median(c.get(name, 0.0) for _, c in layer_totals), unit
            )
    else:
        metrics = {
            "e2e_s": _metric(reference_seconds(unit_seconds, unit_kernels), "s"),
            "setup_s": _metric(reference_seconds(setups, setup_kernels), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": len(unit_seconds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library sources are missing ({SRC})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # A terminated run still closes its worker pools and scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workdir = HERE / ".work" / str(os.getpid())
    try:
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
