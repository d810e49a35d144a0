"""Analysis-plane benchmark — set-based reference vs zero-copy CSR views.

The measured kernels are *observation windows*, the unit of work the
scenario layer pays every time an observer cadence fires:

* ``census`` — build topology access, then run the degree summary and
  the isolated-node count (what the ``degrees`` + ``isolated``
  observers cost per window);
* ``probe`` — build topology access, then run the adversarial
  vertex-expansion portfolio (the ``expansion`` observer) with a
  bounded ``max_size`` window, the configuration large-n cadenced
  probing uses.

Each kernel runs twice on the same frozen network state: the **dict**
plane (``state.snapshot()`` → the set-based reference analyses of
``tests/oracles/analysis.py``) and the **csr** plane
(``state.csr_view()`` → the production analyses of ``repro.analysis``).
The probe kernel asserts the two planes return the *identical* probe
(minimum, witness, candidates checked) before timings count — the
benchmark doubles as a large-n parity check.

A third kernel measures the *incremental* plane
(:class:`repro.analysis.incremental.ProbeCache`): after a warm fill, each
dense-cadence window churns a small delta and re-probes, replaying every
BFS ball churn did not reach.  Every incremental probe is asserted
bit-identical (minimum, witness, candidates checked) against a cold CSR
probe of the same window before its timing counts.

Run as a script to sweep n ∈ {1e3, 1e4, 1e5, 1e6} and record the numbers
(plus the csr/dict speedups) into ``BENCH_analysis.json``:

    PYTHONPATH=src python benchmarks/bench_analysis.py

or via ``pytest benchmarks/bench_analysis.py`` for the CI-scale subset.
The acceptance bars tracked here, on the array backend: at n = 1e5
probe ≥ 5×, census ≥ 10×, incremental ≥ 3× over the cold CSR probe; at
n = 1e6 the full stock observer portfolio (expansion + degrees +
isolated) must complete a dense-cadence window in seconds, not minutes
(int32 CSR indices, no dict plane — a dict probe at that scale takes
tens of minutes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

# The reference plane lives with the test suite; make the repository
# root importable in script mode as well as under pytest.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracles import analysis as oracle  # noqa: E402

from repro.analysis.degrees import degree_summary
from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.analysis.incremental import ProbeCache
from repro.analysis.isolated import count_isolated
from repro.core.edge_policy import RegenerationPolicy
from repro.models.streaming import StreamingNetwork

D = 4
PROBE_PARAMS = dict(seed=1, num_random_sets=64, greedy_restarts=4, max_size=64)
SCRIPT_SIZES = (1_000, 10_000, 100_000, 1_000_000)
PROBE_SPEEDUP_FLOOR_AT_1E5 = 5.0
CENSUS_SPEEDUP_FLOOR_AT_1E5 = 10.0
INCREMENTAL_SPEEDUP_FLOOR_AT_1E5 = 3.0
PORTFOLIO_WINDOW_CEILING_AT_1E6 = 60.0  # "seconds, not minutes"
#: Sizes at or above this skip the dict plane entirely and measure the
#: portfolio + incremental window instead (the dict probe would take
#: tens of minutes there, and the plane's parity is already asserted
#: against the cold CSR probe in-kernel).
PORTFOLIO_ONLY_AT = 1_000_000
#: Incremental windows measured per size (after one uncounted warm-up
#: window that absorbs allocator/CSR-rebuild cold starts).
INCREMENTAL_WINDOWS = 4
#: Smallest size whose script-mode row carries incremental-probe keys.
#: Below this the cold probe is already sub-second and the per-window
#: churn delta is a large fraction of the graph, so the replay ratio
#: (and therefore the speedup) is noise — the checker skips sizes where
#: neither side carries the key.
INCREMENTAL_AT = 100_000


def build_network(n: int, seed: int, backend: str | None) -> StreamingNetwork:
    """A warmed SDGR state — the expander the expansion observer targets."""
    return StreamingNetwork(
        n, RegenerationPolicy(D), seed=seed, backend=backend, fast_warm=True
    )


#: Per plane: the topology export and the degree-summary, isolated-count
#: and probe implementations it measures.
PLANES = {
    "dict": (
        "snapshot",
        oracle.degree_summary,
        oracle.count_isolated,
        oracle.adversarial_expansion_upper_bound,
    ),
    "csr": (
        "csr_view",
        degree_summary,
        count_isolated,
        adversarial_expansion_upper_bound,
    ),
}


def analysis_kernel(net: StreamingNetwork, plane: str) -> dict:
    """Time one census window and one probe window on *plane*.

    Both windows include the topology-access build (snapshot freeze or
    view export) — that is what an observer cadence actually costs.
    """
    state, now = net.state, net.now
    export, summarize, isolated_count, probe_fn = PLANES[plane]
    build = getattr(state, export)

    start = time.perf_counter()
    graph = build(now)
    build_seconds = time.perf_counter() - start

    start = time.perf_counter()
    summary = summarize(graph)
    isolated = isolated_count(graph)
    census_seconds = build_seconds + (time.perf_counter() - start)

    start = time.perf_counter()
    graph = build(now)
    probe = probe_fn(graph, **PROBE_PARAMS)
    probe_seconds = time.perf_counter() - start

    # Raw seconds: speedups divide these, so they must not be
    # pre-rounded (a fast machine's census kernel rounds to 0.0).
    return {
        "plane": plane,
        "n": state.num_alive(),
        "build_seconds": build_seconds,
        "census_seconds": census_seconds,
        "probe_seconds": probe_seconds,
        "mean_degree": round(summary.mean_degree, 4),
        "num_edges": summary.num_edges,
        "isolated": isolated,
        "probe_min_ratio": probe.min_ratio,
        "probe_witness_size": probe.witness_size,
        "probe_candidates": probe.candidates_checked,
    }


def compare_planes(
    n: int,
    seed: int,
    backend: str | None = "array",
    incremental: bool = False,
) -> dict:
    """Run both planes on one frozen state; speedups are csr vs dict.

    A small untimed run first warms NumPy dispatch and the allocator, so
    the first measured plane is not penalized by cold-start costs.  With
    ``incremental=True`` the row additionally measures the ProbeCache
    windows (:func:`incremental_compare`) on the same network.
    """
    analysis_kernel(build_network(min(n, 1_000), seed, backend), "csr")
    net = build_network(n, seed, backend)
    dict_plane = analysis_kernel(net, "dict")
    csr_plane = analysis_kernel(net, "csr")
    for field in ("num_edges", "isolated", "probe_min_ratio",
                  "probe_witness_size", "probe_candidates"):
        if dict_plane[field] != csr_plane[field]:
            raise AssertionError(
                f"plane parity broken at n={n}: {field} "
                f"{dict_plane[field]} != {csr_plane[field]}"
            )
    census_speedup = dict_plane["census_seconds"] / csr_plane["census_seconds"]
    probe_speedup = dict_plane["probe_seconds"] / csr_plane["probe_seconds"]
    for plane in (dict_plane, csr_plane):  # round for the JSON record only
        for field in ("build_seconds", "census_seconds", "probe_seconds"):
            plane[field] = round(plane[field], 6)
    row = {
        "n": n,
        "dict": dict_plane,
        "csr": csr_plane,
        "census_speedup": round(census_speedup, 2),
        "probe_speedup": round(probe_speedup, 2),
    }
    if incremental:
        stats = incremental_compare(net)
        row["incremental"] = {
            key: round(value, 6) if isinstance(value, float) else value
            for key, value in stats.items()
        }
        row["incremental_speedup"] = round(stats["incremental_speedup"], 2)
    return row


# ----------------------------------------------------------------------
# incremental plane: ProbeCache windows vs cold CSR probes
# ----------------------------------------------------------------------

#: ProbeCache portfolio parameters (PROBE_PARAMS minus the RNG seed,
#: which is passed per probe).
PORTFOLIO_PARAMS = {
    key: value for key, value in PROBE_PARAMS.items() if key != "seed"
}


def _assert_probes_identical(incremental, cold, n: int) -> None:
    for field in ("min_ratio", "witness", "witness_size",
                  "candidates_checked"):
        if getattr(incremental, field) != getattr(cold, field):
            raise AssertionError(
                f"incremental parity broken at n={n}: {field} "
                f"{getattr(incremental, field)!r} != "
                f"{getattr(cold, field)!r}"
            )


def incremental_compare(
    net: StreamingNetwork, windows: int = INCREMENTAL_WINDOWS
) -> dict:
    """Measure warm incremental probe windows against cold CSR probes.

    Each window advances the network one round (a dense cadence with a
    small churn delta), times the incremental probe — including the
    window's CSR rebuild, which the incremental path pays first — and
    then times a cold probe of the very same topology.  The two probes
    are asserted **bit-identical in-kernel** before either timing
    counts, so the recorded speedup can never come from a diverged
    result.
    """
    state = net.state
    seed = PROBE_PARAMS["seed"]
    cache = ProbeCache(state, **PORTFOLIO_PARAMS)

    start = time.perf_counter()
    cache.probe(state.csr_view(net.now), seed=seed)
    fill_seconds = time.perf_counter() - start

    incremental_seconds = 0.0
    cold_seconds = 0.0
    replayed = recomputed = 0
    for window in range(windows + 1):
        net.run_rounds(1)
        start = time.perf_counter()
        incremental = cache.probe(state.csr_view(net.now), seed=seed)
        window_incremental = time.perf_counter() - start
        start = time.perf_counter()
        cold = adversarial_expansion_upper_bound(
            state.csr_view(net.now), **PROBE_PARAMS
        )
        window_cold = time.perf_counter() - start
        _assert_probes_identical(incremental, cold, state.num_alive())
        if window == 0:
            continue  # warm-up window: absorbs allocator cold starts
        incremental_seconds += window_incremental
        cold_seconds += window_cold
        replayed += cache.last_stats["replayed"]
        recomputed += cache.last_stats["recomputed"]
    return {
        "windows": windows,
        "fill_seconds": fill_seconds,
        "incremental_seconds": incremental_seconds / windows,
        "cold_probe_seconds": cold_seconds / windows,
        "incremental_speedup": cold_seconds / incremental_seconds,
        "replayed_per_window": replayed // windows,
        "recomputed_per_window": recomputed // windows,
    }


def portfolio_row(n: int, seed: int) -> dict:
    """The million-node row: the full stock observer portfolio per window.

    Runs on the array backend, whose CSR indices are int32 at this size,
    with the incremental probe cache — no dict plane anywhere.  The
    ``compact_csr`` field records whether the view's indices were int32.
    The recorded
    ``portfolio_seconds`` is one dense-cadence window: CSR rebuild +
    degree summary + isolated census + incremental expansion probe.
    A single cold CSR probe supplies the in-kernel parity assertion and
    the cold baseline the incremental speedup divides.
    """
    build_start = time.perf_counter()
    net = build_network(n, seed, None)
    build_seconds = time.perf_counter() - build_start
    state = net.state
    probe_seed = PROBE_PARAMS["seed"]
    cache = ProbeCache(state, **PORTFOLIO_PARAMS)

    start = time.perf_counter()
    cache.probe(state.csr_view(net.now), seed=probe_seed)
    fill_seconds = time.perf_counter() - start

    net.run_rounds(1)  # warm-up window (uncounted)
    cache.probe(state.csr_view(net.now), seed=probe_seed)

    net.run_rounds(1)
    start = time.perf_counter()
    view = state.csr_view(net.now)
    summary = degree_summary(view)
    isolated = count_isolated(view)
    incremental = cache.probe(view, seed=probe_seed)
    portfolio_seconds = time.perf_counter() - start

    start = time.perf_counter()
    cold = adversarial_expansion_upper_bound(
        state.csr_view(net.now), **PROBE_PARAMS
    )
    cold_seconds = time.perf_counter() - start
    _assert_probes_identical(incremental, cold, n)

    return {
        "n": n,
        "compact_csr": bool(view.indices.dtype == np.int32),
        "build_seconds": round(build_seconds, 3),
        "fill_seconds": round(fill_seconds, 3),
        "portfolio_seconds": round(portfolio_seconds, 3),
        "cold_probe_seconds": round(cold_seconds, 3),
        "incremental_speedup": round(cold_seconds / portfolio_seconds, 2),
        "view_nbytes": int(view.nbytes),
        "mean_degree": round(summary.mean_degree, 4),
        "num_edges": summary.num_edges,
        "isolated": isolated,
        "probe_min_ratio": cold.min_ratio,
        "probe_witness_size": cold.witness_size,
        "probe_candidates": cold.candidates_checked,
        "replayed": cache.last_stats["replayed"],
        "recomputed": cache.last_stats["recomputed"],
    }


# ----------------------------------------------------------------------
# pytest entry points (CI scale: the 1e5 point is marked slow)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1_000, 10_000])
def test_bench_analysis(benchmark, bench_seed, n):
    # compare_planes itself asserts the planes agree.
    comparison = benchmark.pedantic(
        compare_planes, args=(n, bench_seed, None), rounds=2, iterations=1
    )
    assert comparison["csr"]["probe_min_ratio"] > 0.1  # SDGR expands
    # Generous floors at CI scale (sub-second kernels, noisy runners);
    # the hard 5x/10x acceptance bars live in the slow 1e5 test and in
    # script mode.
    if n >= 10_000:
        assert comparison["probe_speedup"] >= 1.5
        assert comparison["census_speedup"] >= 3.0


def test_bench_incremental_cache_hits(bench_seed):
    """CI-scale smoke for the cache-hit path: warm windows must replay
    far more balls than they recompute, and every window's probe is
    asserted bit-identical to a cold probe inside the kernel."""
    net = build_network(10_000, bench_seed, None)
    stats = incremental_compare(net, windows=2)
    assert stats["replayed_per_window"] > stats["recomputed_per_window"]
    assert stats["replayed_per_window"] > 0


@pytest.mark.slow
def test_bench_analysis_1e5(benchmark, bench_seed):
    comparison = benchmark.pedantic(
        compare_planes,
        args=(100_000, bench_seed, "array"),
        kwargs={"incremental": True},
        rounds=1,
        iterations=1,
    )
    assert comparison["probe_speedup"] >= PROBE_SPEEDUP_FLOOR_AT_1E5
    assert comparison["census_speedup"] >= CENSUS_SPEEDUP_FLOOR_AT_1E5
    assert (
        comparison["incremental_speedup"] >= INCREMENTAL_SPEEDUP_FLOOR_AT_1E5
    )


@pytest.mark.slow
def test_bench_portfolio_1e6(bench_seed):
    row = portfolio_row(1_000_000, bench_seed)
    assert row["portfolio_seconds"] < PORTFOLIO_WINDOW_CEILING_AT_1E6
    assert row["incremental_speedup"] >= 1.0


# ----------------------------------------------------------------------
# script mode: full sweep recorded to BENCH_analysis.json
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_analysis.json",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=list(SCRIPT_SIZES)
    )
    args = parser.parse_args(argv)
    if not args.sizes:
        parser.error("--sizes needs at least one value")

    results = []
    for n in args.sizes:
        if n >= PORTFOLIO_ONLY_AT:
            row = portfolio_row(n, args.seed)
            results.append(row)
            print(
                f"n={n:>7}: portfolio window {row['portfolio_seconds']:8.3f}s "
                f"(cold probe {row['cold_probe_seconds']:8.3f}s, "
                f"{row['incremental_speedup']:5.1f}x) | "
                f"view {row['view_nbytes'] / 2**20:7.1f} MiB int32"
            )
            continue
        comparison = compare_planes(
            n, args.seed, incremental=n >= INCREMENTAL_AT
        )
        results.append(comparison)
        print(
            f"n={n:>7}: census dict {comparison['dict']['census_seconds']:8.3f}s | "
            f"csr {comparison['csr']['census_seconds']:8.4f}s "
            f"({comparison['census_speedup']:6.1f}x) || "
            f"probe dict {comparison['dict']['probe_seconds']:8.3f}s | "
            f"csr {comparison['csr']['probe_seconds']:8.3f}s "
            f"({comparison['probe_speedup']:6.1f}x)"
        )
        if "incremental_speedup" in comparison:
            stats = comparison["incremental"]
            print(
                f"{'':>10}incremental window "
                f"{stats['incremental_seconds']:8.3f}s | cold probe "
                f"{stats['cold_probe_seconds']:8.3f}s "
                f"({comparison['incremental_speedup']:6.1f}x), replayed "
                f"{stats['replayed_per_window']} / recomputed "
                f"{stats['recomputed_per_window']} per window"
            )

    payload = {
        "benchmark": (
            "analysis plane (dict snapshot path vs zero-copy CSR views: "
            "degree/isolated census + adversarial expansion probe windows)"
        ),
        "d": D,
        "backend": "array",
        "probe_params": dict(PROBE_PARAMS),
        "seed": args.seed,
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    plane_rows = [row for row in results if "probe_speedup" in row]
    if plane_rows:
        largest = max(plane_rows, key=lambda row: row["n"])
        if largest["n"] >= 100_000:
            if largest["probe_speedup"] < PROBE_SPEEDUP_FLOOR_AT_1E5:
                print(
                    f"FAIL: probe speedup {largest['probe_speedup']}x at "
                    f"n={largest['n']} is below the "
                    f"{PROBE_SPEEDUP_FLOOR_AT_1E5}x floor"
                )
                failed = True
            if largest["census_speedup"] < CENSUS_SPEEDUP_FLOOR_AT_1E5:
                print(
                    f"FAIL: census speedup {largest['census_speedup']}x at "
                    f"n={largest['n']} is below the "
                    f"{CENSUS_SPEEDUP_FLOOR_AT_1E5}x floor"
                )
                failed = True
            if (
                "incremental_speedup" in largest
                and largest["incremental_speedup"]
                < INCREMENTAL_SPEEDUP_FLOOR_AT_1E5
            ):
                print(
                    f"FAIL: incremental speedup "
                    f"{largest['incremental_speedup']}x at n={largest['n']} "
                    f"is below the {INCREMENTAL_SPEEDUP_FLOOR_AT_1E5}x floor"
                )
                failed = True
    for row in results:
        if "portfolio_seconds" not in row:
            continue
        if row["portfolio_seconds"] >= PORTFOLIO_WINDOW_CEILING_AT_1E6:
            print(
                f"FAIL: portfolio window {row['portfolio_seconds']}s at "
                f"n={row['n']} breaches the "
                f"{PORTFOLIO_WINDOW_CEILING_AT_1E6}s ceiling "
                "(seconds, not minutes)"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
