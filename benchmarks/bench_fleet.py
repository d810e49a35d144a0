"""Fleet-plane benchmark — two shared-store workers vs one, honestly.

The measured unit is the fleet execution path of the sweep plane
(:func:`repro.api.run_fleet`): the same SDGR replica sweep
``bench_sweep.py`` measures, executed once by a single worker and once
by **two worker processes draining one shared store** through the
claim protocol (``O_EXCL`` cell claims, content-addressed commits,
canonical-order reduction).  Before any timing counts, the two
artifacts must be **byte-identical in their canonical core** — the
benchmark doubles as the fleet-correctness check.

Honesty convention (same as ``bench_sweep.py``): two workers can only
demonstrate a speedup on a machine with at least two cores, so the row
records the measuring machine's ``cores`` and a ``parallel_meaningful``
flag, and the regression guard skips the ``fleet_speedup`` comparison
whenever either side measured on too few cores.  On a single-core
machine the recorded ratio mostly prices the claim/IPC overhead — which
is itself worth tracking for transparency.

    PYTHONPATH=src python benchmarks/bench_fleet.py

merges its row (at a distinct ``n`` from the runner bench) into
``BENCH_sweep.json``; ``pytest benchmarks/bench_fleet.py`` runs the
CI-scale smoke (tiny cells, digest-equality-first).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.api import collect, run_fleet

from bench_sweep import replica_sweep

FLEET_SPEEDUP_FLOOR = 1.4
DEFAULT_N = 5_000
DEFAULT_HORIZON = 2_500
DEFAULT_CELLS = 8
DEFAULT_WORKERS = 2


def measure_fleet(
    n: int,
    horizon: int,
    cells: int,
    workers: int,
    seed: int,
    backend: str | None = "array",
) -> dict:
    """Time one-worker vs N-worker shared-store execution of one sweep."""
    sweep = replica_sweep(n, horizon, cells, seed, backend)
    cores = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        solo_store = Path(tmp) / "solo"
        fleet_store = Path(tmp) / "fleet"

        start = time.perf_counter()
        solo = run_fleet(sweep, solo_store, workers=1)
        solo_seconds = time.perf_counter() - start

        start = time.perf_counter()
        fleet = run_fleet(sweep, fleet_store, workers=workers)
        fleet_seconds = time.perf_counter() - start

        if fleet.core_bytes() != solo.core_bytes():
            raise AssertionError(
                "fleet artifact core differs from the single-worker core "
                "— the byte-identity contract is broken"
            )

        # Warm reduction: the grid is complete, so collect() alone must
        # rebuild the identical artifact from stored cells.
        start = time.perf_counter()
        warm = collect(fleet_store, sweep, timeout=0)
        reduce_seconds = time.perf_counter() - start
        if warm.digest != solo.digest:
            raise AssertionError("warm reduction diverged from cold runs")

    return {
        "n": n,
        "horizon": horizon,
        "cells": cells,
        "workers": workers,
        "cores": cores,
        "solo_seconds": round(solo_seconds, 4),
        "fleet_seconds": round(fleet_seconds, 4),
        "reduce_seconds": round(reduce_seconds, 4),
        "fleet_speedup": round(solo_seconds / fleet_seconds, 2),
        # Same honesty convention as bench_sweep: N workers cannot beat
        # the core count, so the guard skips the ratio on starved boxes.
        "parallel_meaningful": cores >= workers,
    }


# ----------------------------------------------------------------------
# pytest entry point (CI scale: tiny cells, digest-equality-first)
# ----------------------------------------------------------------------


def test_bench_fleet_smoke(benchmark, bench_seed):
    row = benchmark.pedantic(
        measure_fleet,
        args=(500, 250, 4, 2, bench_seed),
        kwargs={"backend": None},  # the spec default: the array backend
        rounds=1,
        iterations=1,
    )
    # Correctness (core-byte identity, warm-reduction digest equality)
    # is asserted inside measure_fleet; at smoke scale the only stable
    # expectation is that the fleet completed every cell.
    assert row["cells"] == 4
    assert row["fleet_speedup"] > 0


# ----------------------------------------------------------------------
# script mode: row merged into BENCH_sweep.json
# ----------------------------------------------------------------------


def _merge_row(output: Path, row: dict, backend: str, seed: int) -> None:
    """Insert/replace the fleet row (keyed on ``n``) in BENCH_sweep.json."""
    if output.exists():
        payload = json.loads(output.read_text())
    else:
        payload = {
            "benchmark": "sweep plane",
            "backend": backend,
            "seed": seed,
            "results": [],
        }
    payload["results"] = [
        existing for existing in payload["results"] if existing["n"] != row["n"]
    ] + [row]
    payload["results"].sort(key=lambda r: r["n"])
    output.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument("--cells", type=int, default=DEFAULT_CELLS)
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    parser.add_argument(
        "--backend", default="array",
        help="topology backend of the measured cells (default: array)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sweep.json",
        help="sweep-plane baseline file the fleet row is merged into",
    )
    args = parser.parse_args(argv)

    row = measure_fleet(
        args.n, args.horizon, args.cells, args.workers, args.seed,
        args.backend,
    )
    print(
        f"n={row['n']} cells={row['cells']} on {row['cores']} core(s): "
        f"1 worker {row['solo_seconds']:.2f}s | "
        f"{row['workers']} shared-store workers {row['fleet_seconds']:.2f}s "
        f"({row['fleet_speedup']:.2f}x) | "
        f"warm reduce {row['reduce_seconds']:.3f}s"
    )
    if not row["parallel_meaningful"]:
        print(
            f"note: only {row['cores']} core(s) visible — the fleet ratio "
            f"cannot demonstrate {row['workers']}-worker scaling on this "
            "machine and is recorded for transparency only"
        )

    _merge_row(args.output, row, args.backend, args.seed)
    print(f"merged fleet row into {args.output}")

    if row["parallel_meaningful"] and row["fleet_speedup"] < FLEET_SPEEDUP_FLOOR:
        print(
            f"FAIL: fleet speedup {row['fleet_speedup']}x at "
            f"{row['workers']} workers is below the "
            f"{FLEET_SPEEDUP_FLOOR}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
