"""Backend scaling benchmark — dict vs array on the churn+flooding hot loop.

The measured kernel is the library's hottest end-to-end path: build a warm
SDGR network of ``n`` nodes (``n`` churn rounds: the dominant cost), then
run Definition 3.3 flooding to completion (~log n rounds of boundary
expansion).  Each backend uses its natural path — the dict reference
backend (the test oracle in ``tests/oracles/dict_backend.py``) runs
per-event rounds and set-union boundaries, the array backend batched
births and the vectorized mask frontier — which is exactly the comparison
that matters for scale.

Run as a script to sweep n ∈ {1e3, 1e4, 1e5} on both backends and record
the numbers (plus the array/dict speedups) into ``BENCH_backend.json``:

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py

or via ``pytest benchmarks/bench_backend_scaling.py`` for the CI-scale
subset.  The acceptance bar tracked here: the array backend is ≥ 5×
faster at n = 1e5 (the shipped BENCH_backend.json records ~16×).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import pytest

# The dict oracle lives with the test suite; make the repository root
# importable in script mode as well as under pytest.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracles.dict_backend import (  # noqa: E402
    DictBackend,
    flood_discrete_reference,
)

from repro.analysis.degrees import live_degree_summary
from repro.flooding import flood_discrete
from repro.models import SDGR

D = 4
SCRIPT_SIZES = (1_000, 10_000, 100_000)
SPEEDUP_FLOOR_AT_1E5 = 5.0


def churn_flood_kernel(n: int, backend: str, seed: int) -> dict:
    """Build a warm SDGR(n, d=4) and flood it; return timing metrics.

    ``rounds`` counts every simulated unit-time round (n warm-up rounds +
    the flooding rounds, each of which also applies one churn round), so
    ``rounds_per_sec`` is comparable across backends and sizes.
    """
    array = backend == "array"
    flood = flood_discrete if array else flood_discrete_reference
    start = time.perf_counter()
    net = SDGR(
        n=n,
        d=D,
        seed=seed,
        backend=None if array else DictBackend(),
        fast_warm=array,
    )
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    result = flood(net, max_rounds=8 * int(math.log2(n)))
    flood_seconds = time.perf_counter() - start
    total = build_seconds + flood_seconds
    rounds = n + result.rounds_run
    degrees = live_degree_summary(net.state)
    return {
        "backend": backend,
        "n": n,
        "d": D,
        "mean_degree": round(degrees.mean_degree, 3),
        "max_degree": degrees.max_degree,
        "build_seconds": round(build_seconds, 4),
        "flood_seconds": round(flood_seconds, 4),
        "total_seconds": round(total, 4),
        "flood_rounds": result.rounds_run,
        "flood_completed": result.completed,
        "rounds_per_sec": round(rounds / total, 1),
    }


def compare_backends(n: int, seed: int) -> dict:
    """Run both backends at size *n* and report the array/dict speedup."""
    dict_row = churn_flood_kernel(n, "dict", seed)
    array_row = churn_flood_kernel(n, "array", seed)
    return {
        "n": n,
        "dict": dict_row,
        "array": array_row,
        "speedup": round(
            dict_row["total_seconds"] / array_row["total_seconds"], 2
        ),
    }


# ----------------------------------------------------------------------
# pytest entry points (CI scale: the 1e5 point is marked slow)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_bench_backend_scaling(benchmark, bench_seed, n):
    comparison = benchmark.pedantic(
        compare_backends, args=(n, bench_seed), rounds=2, iterations=1
    )
    assert comparison["array"]["flood_completed"]
    assert comparison["dict"]["flood_completed"]
    # Generous floor: these kernels run sub-second, so scheduler noise on
    # a shared runner can dent the ratio (typical margins are 4-8x at 1e3
    # and 6-10x at 1e4). The hard 5x acceptance bar lives in the slow
    # 1e5 test and the script's exit code, where the signal dwarfs noise.
    if n >= 10_000:
        assert comparison["speedup"] >= 1.2


@pytest.mark.slow
def test_bench_backend_scaling_1e5(benchmark, bench_seed):
    comparison = benchmark.pedantic(
        compare_backends, args=(100_000, bench_seed), rounds=1, iterations=1
    )
    assert comparison["speedup"] >= SPEEDUP_FLOOR_AT_1E5


# ----------------------------------------------------------------------
# script mode: full sweep recorded to BENCH_backend.json
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_backend.json",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=list(SCRIPT_SIZES)
    )
    args = parser.parse_args(argv)
    if not args.sizes:
        parser.error("--sizes needs at least one value")

    results = []
    for n in args.sizes:
        comparison = compare_backends(n, args.seed)
        results.append(comparison)
        print(
            f"n={n:>7}: dict {comparison['dict']['total_seconds']:8.3f}s "
            f"({comparison['dict']['rounds_per_sec']:>9.1f} rounds/s) | "
            f"array {comparison['array']['total_seconds']:8.3f}s "
            f"({comparison['array']['rounds_per_sec']:>9.1f} rounds/s) | "
            f"speedup {comparison['speedup']:5.2f}x"
        )

    payload = {
        "benchmark": "churn+flooding hot loop (warm SDGR build + flood_discrete)",
        "d": D,
        "seed": args.seed,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    largest = max(results, key=lambda row: row["n"])
    if largest["n"] >= 100_000 and largest["speedup"] < SPEEDUP_FLOOR_AT_1E5:
        print(
            f"FAIL: speedup {largest['speedup']}x at n={largest['n']} "
            f"is below the {SPEEDUP_FLOOR_AT_1E5}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
