"""Service-plane benchmark — checkpoint cost and restore vs cold rebuild.

The measured unit is the service plane's unit of work: one batched
Poisson scenario session (array backend, n = 1e5) run three ways:

* **base** — the horizon with no checkpointing (what every run paid
  before the service plane existed);
* **cadenced** — the same seeded horizon with ``checkpoint_every``
  dumps into a scratch directory, asserted **bit-identical** (observer
  results and final topology) to the base run before timings count —
  the benchmark doubles as a restore-parity check at scale.  The
  batched trajectory depends on the advance stride (the gcd of all
  observer cadences, which ``checkpoint_every`` joins), so the bench
  keeps the checkpoint cadence a multiple of the observer window —
  the stride, and hence the trajectory, is unchanged by checkpointing;
* **restore** — ``Simulation.restore`` of the mid-run checkpoint,
  timed against a **cold rebuild** (re-running the seeded scenario from
  construction to the same round), the alternative a crashed multi-hour
  run would otherwise pay.

Recorded per size: the checkpoint dump/load/restore costs, the file
size, the steady-state overhead of the ``checkpoint_every`` cadence
(as a fraction of the base run), and ``restore_speedup = cold rebuild /
restore`` — the guarded metric (``check_bench_regression.py
--current-service``): restoring a checkpoint must stay well cheaper
than re-simulating, or the service plane has lost its reason to exist.

    PYTHONPATH=src python benchmarks/bench_service.py

writes ``BENCH_service.json``; ``pytest benchmarks/bench_service.py``
runs the CI-scale smoke (small n, correctness-first, both stepping
paths).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.scenario import ScenarioSpec, Simulation

DEFAULT_N = 100_000
DEFAULT_HORIZON = 40
DEFAULT_EVERY = 10
RESTORE_SPEEDUP_FLOOR = 2.0


def _spec(n: int, horizon: int, seed: int, backend: str) -> ScenarioSpec:
    return ScenarioSpec(
        churn="poisson",
        policy="regen",
        n=n,
        d=4,
        horizon=horizon,
        churn_params={"fast_warm": True},
        fast_rounds=True,
        backend=backend,
        seed=seed,
    )


def _observers(every: int):
    return [{"name": "size", "params": {"every": every}}]


def measure_service(
    n: int, horizon: int, every: int, seed: int, backend: str = "array"
) -> dict:
    """One benchmark row: checkpoint costs + cadence overhead at size n.

    The observer window equals ``every`` so the batch stride — gcd of
    observer cadences plus the checkpoint cadence — is the same with
    and without checkpointing, keeping base and cadenced trajectories
    comparable (batched advance is not stride-invariant).
    """
    spec = _spec(n, horizon, seed, backend)
    observers = _observers(every)

    # Untimed warm-up at a small size: NumPy dispatch, allocator.
    Simulation(
        _spec(min(n, 1_000), every, seed, backend), observers=_observers(every)
    ).run()

    start = time.perf_counter()
    base = Simulation(spec, observers=observers).run()
    base_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as scratch:
        start = time.perf_counter()
        cadenced = Simulation(
            spec,
            observers=observers,
            checkpoint_every=every,
            checkpoint_dir=scratch,
        ).run()
        cadenced_seconds = time.perf_counter() - start

        # Parity first: cadence checkpointing must not perturb the run.
        if cadenced.results() != base.results():
            raise AssertionError(
                f"cadenced run diverged from base run at n={n}"
            )
        if cadenced.snapshot() != base.snapshot():
            raise AssertionError(f"cadenced topology diverged at n={n}")

        files = sorted(Path(scratch).glob("ckpt-*.json"))
        mid = files[len(files) // 2 - 1] if len(files) > 1 else files[0]
        checkpoint_mb = mid.stat().st_size / 1e6

        # One explicit dump of the finished session, timed.
        start = time.perf_counter()
        extra = cadenced.save_checkpoint(Path(scratch) / "explicit.json")
        dump_seconds = time.perf_counter() - start
        extra.unlink()

        start = time.perf_counter()
        restored = Simulation.restore(mid)
        restore_seconds = time.perf_counter() - start
        restored_rounds = restored.rounds_completed

        # The alternative to restoring: rebuild from scratch and re-run
        # the same seeded trajectory up to the checkpoint round.
        start = time.perf_counter()
        cold = Simulation(spec, observers=observers)
        cold._run_windows(restored_rounds)
        cold_seconds = time.perf_counter() - start

        # Restore parity at scale: finishing the restored session must
        # land exactly on the base run.
        restored.run()
        if restored.results() != base.results():
            raise AssertionError(f"restored run diverged at n={n}")
        if restored.snapshot() != base.snapshot():
            raise AssertionError(f"restored topology diverged at n={n}")

    overhead = (cadenced_seconds - base_seconds) / base_seconds
    return {
        "n": n,
        "horizon": horizon,
        "checkpoint_every": every,
        "checkpoints_written": len(files),
        "base_seconds": round(base_seconds, 4),
        "cadenced_seconds": round(cadenced_seconds, 4),
        "overhead_pct": round(100.0 * overhead, 2),
        "dump_seconds": round(dump_seconds, 4),
        "restore_seconds": round(restore_seconds, 4),
        "cold_rebuild_seconds": round(cold_seconds, 4),
        "checkpoint_mb": round(checkpoint_mb, 3),
        "restore_speedup": round(cold_seconds / restore_seconds, 2),
    }


# ----------------------------------------------------------------------
# pytest smoke (CI scale): correctness-first
# ----------------------------------------------------------------------


def test_service_bench_smoke():
    row = measure_service(n=300, horizon=12, every=4, seed=0)
    assert row["checkpoints_written"] == 3
    assert row["checkpoint_mb"] > 0
    # No speedup assertion at toy sizes: restore wins only when the
    # re-simulation it replaces is expensive.


def test_service_bench_guard_at_scale_is_wired():
    # The guarded key must stay in the payload the checker reads.
    from check_bench_regression import SERVICE_KEYS

    assert "restore_speedup" in SERVICE_KEYS


# ----------------------------------------------------------------------
# script mode: recorded to BENCH_service.json
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=DEFAULT_N)
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument("--every", type=int, default=DEFAULT_EVERY)
    parser.add_argument(
        "--backend", default="array",
        help="topology backend of the measured session (default: array)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
    )
    args = parser.parse_args(argv)

    row = measure_service(
        args.n, args.horizon, args.every, args.seed, args.backend
    )
    print(
        f"n={row['n']}: base {row['base_seconds']:.2f}s | cadenced "
        f"{row['cadenced_seconds']:.2f}s ({row['overhead_pct']:+.1f}%) | "
        f"dump {row['dump_seconds']:.2f}s ({row['checkpoint_mb']:.1f} MB) | "
        f"restore {row['restore_seconds']:.2f}s vs cold rebuild "
        f"{row['cold_rebuild_seconds']:.2f}s "
        f"({row['restore_speedup']:.1f}x)"
    )

    payload = {
        "benchmark": (
            "service plane (batched Poisson session: checkpoint cadence "
            "overhead, dump/restore cost, restore vs cold rebuild)"
        ),
        "backend": args.backend,
        "seed": args.seed,
        "results": [row],
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if row["restore_speedup"] < RESTORE_SPEEDUP_FLOOR:
        print(
            f"FAIL: restore speedup {row['restore_speedup']}x is below "
            f"the {RESTORE_SPEEDUP_FLOOR}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
