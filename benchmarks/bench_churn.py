"""Churn-kernel benchmark — fused window rounds vs per-event stepping.

The measured unit is the streaming driver's inner loop: one
death→regeneration→birth round.  The per-event path pays Python
dispatch per event; the fused path (``advance_to_time_batched`` through
``apply_fused_rounds``) executes a whole window of the same rounds with
O(1) Python overhead per round and one batched backend write.

Measured per size (array backend, the production configuration):

* **SDGR** (regeneration, the paper's hard case) — per-event rounds/s
  vs fused rounds/s; ``fused_speedup`` is their ratio and the guarded
  metric (``check_bench_regression.py --current-churn``).  The script
  asserts the ISSUE floor — fused ≥ ``FUSED_SPEEDUP_FLOOR``× per-event
  at the main size — before writing the payload.
* **SDG** (no regeneration) — fused rounds/s; the no-regen law
  vectorizes completely, so this is the kernel ceiling.
* An **n = 1e6 smoke row** — fused-only (per-event is minutes at that
  scale), invariants checked, demonstrating million-node routine use.

Both paths step the same seeded trajectory (the fused kernel takes the
per-event draws; tests/test_fused_windows.py holds it to the hook
loop), so the two timings cover the same rounds.  On the dict oracle a
fused window steps the hooks.

    PYTHONPATH=src python benchmarks/bench_churn.py

writes ``BENCH_churn.json``; ``pytest benchmarks/bench_churn.py`` runs
the CI-scale smoke (small n, correctness-first, on the array backend and
the dict oracle of ``tests/oracles/dict_backend.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

# The dict oracle lives with the test suite; make the repository root
# importable in script mode as well as under pytest.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracles.dict_backend import BACKENDS  # noqa: E402

from repro.models.streaming import SDG, SDGR

DEFAULT_N = 100_000
DEFAULT_D = 8
DEFAULT_PER_EVENT_ROUNDS = 100
# Long enough that the O(n·d) per-chunk write-back amortizes: fused
# throughput is a function of window length until chunks are full-size.
DEFAULT_FUSED_ROUNDS = 20_000
SMOKE_N = 1_000_000
SMOKE_ROUNDS = 20_000

#: The ISSUE acceptance floor: fused SDGR must beat per-event by at
#: least this factor at the main size on the array backend.
FUSED_SPEEDUP_FLOOR = 5.0


def _per_event_rate(factory, n, d, rounds, seed, backend) -> float:
    net = factory(n, d, seed=seed, backend=BACKENDS[backend](), fast_warm=True)
    start = time.perf_counter()
    net.run_rounds(rounds)
    return rounds / (time.perf_counter() - start)


def _fused_rate(
    factory, n, d, rounds, seed, backend, check=False, repeats=2
) -> float:
    # Best-of-N: the fused side is fast enough that scheduler noise on a
    # shared runner dominates a single timing.
    best = 0.0
    for attempt in range(repeats):
        net = factory(
            n, d, seed=seed, backend=BACKENDS[backend](), fast_warm=True
        )
        start = time.perf_counter()
        net.advance_to_time_batched(net.now + rounds)
        elapsed = time.perf_counter() - start
        if check and attempt == 0:
            net.state.check_invariants()
            assert net.num_alive() == n
        best = max(best, rounds / elapsed)
    return best


def measure_churn(
    n: int,
    d: int,
    per_event_rounds: int,
    fused_rounds: int,
    seed: int,
    backend: str = "array",
) -> dict:
    """One benchmark row: per-event vs fused round throughput at size n."""
    # Untimed warm-up at a small size: NumPy dispatch, allocator.
    _fused_rate(SDGR, min(n, 1_000), d, 50, seed, backend)

    per_event = _per_event_rate(SDGR, n, d, per_event_rounds, seed, backend)
    fused = _fused_rate(SDGR, n, d, fused_rounds, seed, backend, check=True)
    sdg_fused = _fused_rate(SDG, n, d, fused_rounds, seed, backend, check=True)

    return {
        "n": n,
        "d": d,
        "per_event_rounds_per_s": round(per_event, 1),
        "fused_rounds_per_s": round(fused, 1),
        "fused_us_per_round": round(1e6 / fused, 3),
        "sdg_fused_rounds_per_s": round(sdg_fused, 1),
        "fused_speedup": round(fused / per_event, 2),
    }


def measure_smoke(n: int, d: int, rounds: int, seed: int) -> dict:
    """The million-node row: fused only, invariants checked."""
    fused = _fused_rate(SDGR, n, d, rounds, seed, "array", check=True)
    return {
        "n": n,
        "d": d,
        "fused_rounds_per_s": round(fused, 1),
        "fused_us_per_round": round(1e6 / fused, 3),
    }


# ----------------------------------------------------------------------
# pytest smoke (CI scale): correctness-first, array backend and oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["dict", "array"])
def test_churn_bench_smoke(backend):
    row = measure_churn(
        n=500, d=4, per_event_rounds=50, fused_rounds=200,
        seed=0, backend=backend,
    )
    assert row["per_event_rounds_per_s"] > 0
    assert row["fused_rounds_per_s"] > 0
    # No speedup floor at toy sizes: fixed per-window overheads dominate
    # until the per-round work is large enough to amortize them.


def test_churn_bench_guard_is_wired():
    # The guarded key must stay in the payload the checker reads.
    from check_bench_regression import CHURN_KEYS

    assert "fused_speedup" in CHURN_KEYS


# ----------------------------------------------------------------------
# script mode: recorded to BENCH_churn.json
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--d", type=int, default=DEFAULT_D)
    parser.add_argument(
        "--per-event-rounds", type=int, default=DEFAULT_PER_EVENT_ROUNDS,
        help="rounds timed on the per-event path (it is the slow side)",
    )
    parser.add_argument(
        "--fused-rounds", type=int, default=DEFAULT_FUSED_ROUNDS,
        help="rounds timed on the fused path",
    )
    parser.add_argument(
        "--skip-smoke", action="store_true",
        help=f"skip the n={SMOKE_N:,} fused-only smoke row",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_churn.json",
    )
    args = parser.parse_args(argv)

    row = measure_churn(
        args.n, args.d, args.per_event_rounds, args.fused_rounds, args.seed
    )
    print(
        f"n={row['n']:,} d={row['d']}: per-event "
        f"{row['per_event_rounds_per_s']:,.0f} rounds/s | fused SDGR "
        f"{row['fused_rounds_per_s']:,.0f} rounds/s "
        f"({row['fused_us_per_round']:.2f} us/round) | fused SDG "
        f"{row['sdg_fused_rounds_per_s']:,.0f} rounds/s | speedup "
        f"{row['fused_speedup']:.1f}x"
    )
    if row["fused_speedup"] < FUSED_SPEEDUP_FLOOR:
        raise AssertionError(
            f"fused speedup {row['fused_speedup']}x is below the "
            f"{FUSED_SPEEDUP_FLOOR}x acceptance floor at n={args.n}"
        )

    results = [row]
    if not args.skip_smoke:
        smoke = measure_smoke(SMOKE_N, args.d, SMOKE_ROUNDS, args.seed)
        print(
            f"n={smoke['n']:,} d={smoke['d']}: fused SDGR "
            f"{smoke['fused_rounds_per_s']:,.0f} rounds/s "
            f"({smoke['fused_us_per_round']:.2f} us/round) [smoke]"
        )
        results.append(smoke)

    payload = {
        "benchmark": (
            "churn kernels (streaming rounds: fused window batching vs "
            "per-event stepping, array backend)"
        ),
        "backend": "array",
        "seed": args.seed,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
