"""EXP-05 — flooding informs a 1 − exp(−Ω(d)) fraction in O(log n) rounds.

Reproduces Theorem 3.8 (SDG) and Theorem 4.13 (PDG) with two sweeps:

* **d-sweep** at fixed n: the uninformed fraction after the τ(n, d)
  horizon should decay exponentially in d (fitted rate < 0), and the
  informed fraction should beat the paper's ``1 − e^{−d/10}`` /
  ``1 − e^{−d/20}`` guarantee at the paper's probability;
* **n-sweep** at fixed d: the number of rounds to reach a fixed 90%
  coverage should grow like log n (flat ``rounds / log n`` ratio).
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec
from repro.sweep import SweepSpec, fraction_at_round, run_sweep
from repro.theory.flooding import (
    informed_fraction_bound_poisson,
    informed_fraction_bound_streaming,
    partial_flooding_rounds,
)
from repro.util.stats import (
    exponential_decay_fit,
    log_scaling_fit,
    mean_confidence_interval,
)

COLUMNS = [
    "sweep",
    "model",
    "n",
    "d",
    "horizon",
    "informed_fraction",
    "paper_guarantee",
    "meets_guarantee",
]


def _rounds_to_fraction(fractions: list[float], fraction: float) -> int | None:
    for index, value in enumerate(fractions):
        if value >= fraction:
            return index
    return None


SDG_SPEC = ScenarioSpec(churn="streaming", policy="none", protocol="discrete")
PDG_SPEC = ScenarioSpec(churn="poisson", policy="none", protocol="discretized")


def _d_axis_sweep(
    base: ScenarioSpec, n: int, ds: list[int], trials: int, seed: int,
    stream: str,
) -> SweepSpec:
    """The d sweep at fixed n — max_rounds tracks the τ(n, d) horizon."""
    return SweepSpec(
        base=base.with_(n=n),
        axes=[
            (
                "scenario",
                tuple(
                    {
                        "d": d,
                        "protocol_params": {
                            "max_rounds": partial_flooding_rounds(n, d)
                        },
                    }
                    for d in ds
                ),
            )
        ],
        replicas=trials,
        seed=seed,
        stream=stream,
        measure="flood_stats",
    )


@register(
    "EXP-05",
    "Flooding informs 1−exp(−Ω(d)) of nodes in O(log n) rounds",
    "Table 1 row 4; Theorem 3.8 (SDG), Theorem 4.13 (PDG)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n_fixed, trials = 400, 3
        d_guarantee = [4, 8, 12, 16]
        d_decay, decay_trials = [2, 3, 4, 5], 5
        n_sweep = [200, 400, 800]
        d_fixed = 8
    else:
        n_fixed, trials = 1000, 6
        d_guarantee = [4, 8, 12, 16, 20, 24]
        d_decay, decay_trials = [2, 3, 4, 5, 6], 10
        n_sweep = [250, 500, 1000, 2000, 4000]
        d_fixed = 8

    # Declared sweeps.  The guarantee grids run one stream per model; the
    # decay grids *share* a stream, so SDG and PDG cell i draw the same
    # child seed — preserving the paired-trial structure of the original
    # loop (one child seeding both models).
    guarantee_sweeps = [
        (
            "SDG",
            informed_fraction_bound_streaming,
            _d_axis_sweep(
                SDG_SPEC.with_(horizon=n_fixed), n_fixed, d_guarantee,
                trials, seed, "exp05-sdg-guarantee",
            ),
        ),
        (
            "PDG",
            informed_fraction_bound_poisson,
            _d_axis_sweep(
                PDG_SPEC, n_fixed, d_guarantee, trials, seed,
                "exp05-pdg-guarantee",
            ),
        ),
    ]
    decay_sweeps = {
        "SDG": _d_axis_sweep(
            SDG_SPEC.with_(horizon=n_fixed), n_fixed, d_decay, decay_trials,
            seed, "exp05-decay",
        ),
        "PDG": _d_axis_sweep(
            PDG_SPEC, n_fixed, d_decay, decay_trials, seed, "exp05-decay",
        ),
    }
    n_sweep_spec = SweepSpec(
        base=SDG_SPEC,
        axes=[
            (
                "scenario",
                tuple(
                    {
                        "n": n,
                        "horizon": n,
                        "d": d_fixed,
                        "protocol_params": {
                            "max_rounds": 6 * partial_flooding_rounds(n, d_fixed)
                        },
                    }
                    for n in n_sweep
                ),
            )
        ],
        replicas=trials,
        seed=seed,
        stream="exp05-n",
        measure="flood_stats",
    )

    rows: list[dict] = []
    with Stopwatch() as watch:
        # --- d-sweep (guarantee): informed fraction at the horizon beats
        #     the paper's 1 − e^{−d/10} (resp. −d/20) bound.
        for model, bound, sweep in guarantee_sweeps:
            groups = run_sweep(sweep).value_groups()
            for d, floods in zip(d_guarantee, groups):
                horizon = partial_flooding_rounds(n_fixed, d)
                ci = mean_confidence_interval(
                    [fraction_at_round(flood, horizon) for flood in floods]
                )
                guarantee = bound(d)
                rows.append(
                    {
                        "sweep": "d",
                        "model": model,
                        "n": n_fixed,
                        "d": d,
                        "horizon": horizon,
                        "informed_fraction": ci.mean,
                        "paper_guarantee": guarantee,
                        "meets_guarantee": ci.mean >= guarantee - 0.02,
                    }
                )

        # --- d-sweep (decay): the *unreachable* residual (uninformed nodes
        #     minus the O(1) just-arrived backlog, which is d-independent)
        #     decays exponentially in d.  This isolates the exp(−Ω(d))
        #     shape from the 1/n floor caused by the perpetual newborn.
        decay_groups = {
            model: run_sweep(sweep).value_groups()
            for model, sweep in decay_sweeps.items()
        }
        sdg_residuals: list[float] = []
        pdg_residuals: list[float] = []
        for point, d in enumerate(d_decay):
            horizon = partial_flooding_rounds(n_fixed, d)
            means: dict[str, float] = {}
            for model in ("SDG", "PDG"):
                residuals = []
                for flood in decay_groups[model][point]:
                    backlog_free = max(
                        0,
                        flood["final_network_size"]
                        - flood["final_informed"]
                        - 2,
                    )
                    residuals.append(
                        backlog_free / flood["final_network_size"]
                    )
                means[model] = mean_confidence_interval(residuals).mean
            sdg_residuals.append(max(means["SDG"], 0.5 / n_fixed))
            pdg_residuals.append(max(means["PDG"], 0.5 / n_fixed))
            rows.append(
                {
                    "sweep": "decay",
                    "model": "SDG/PDG",
                    "n": n_fixed,
                    "d": d,
                    "horizon": horizon,
                    "informed_fraction": 1.0 - means["SDG"],
                    "paper_guarantee": None,
                    "meets_guarantee": True,
                }
            )

        # --- n-sweep: rounds to reach 90% coverage vs log n.
        rounds_to_90: list[float] = []
        for n, floods in zip(n_sweep, run_sweep(n_sweep_spec).value_groups()):
            times = [
                reach
                for flood in floods
                if (reach := _rounds_to_fraction(flood["fractions"], 0.9))
                is not None
            ]
            mean_rounds = (
                mean_confidence_interval(times).mean if times else float("nan")
            )
            rounds_to_90.append(mean_rounds)
            rows.append(
                {
                    "sweep": "n",
                    "model": "SDG",
                    "n": n,
                    "d": d_fixed,
                    "horizon": None,
                    "informed_fraction": 0.9,
                    "paper_guarantee": None,
                    "meets_guarantee": bool(times),
                }
            )
            rows[-1]["rounds_to_90pct"] = mean_rounds
            rows[-1]["rounds_over_log_n"] = (
                mean_rounds / math.log(n) if times else None
            )

        sdg_fit = exponential_decay_fit(d_decay, sdg_residuals)
        pdg_fit = exponential_decay_fit(d_decay, pdg_residuals)
        usable = [
            (n, t) for n, t in zip(n_sweep, rounds_to_90) if t == t
        ]
        log_fit = log_scaling_fit([n for n, _ in usable], [t for _, t in usable])

    d_rows = [r for r in rows if r["sweep"] == "d"]
    return ExperimentResult(
        experiment_id="EXP-05",
        columns=COLUMNS + ["rounds_to_90pct", "rounds_over_log_n"],
        rows=rows,
        verdict={
            "guarantees_met": all(r["meets_guarantee"] for r in d_rows),
            "sdg_uninformed_decay_rate": sdg_fit.slope,
            "pdg_uninformed_decay_rate": pdg_fit.slope,
            "uninformed_decays_exponentially": sdg_fit.slope < -0.3
            and pdg_fit.slope < -0.3,
            "rounds_vs_log_n_slope": log_fit.slope,
            "rounds_vs_log_n_r2": log_fit.r_squared,
            "time_scales_logarithmically": log_fit.r_squared > 0.6,
        },
        notes=(
            "The paper's constants (d ≥ 200 / d ≥ 1152) are union-bound "
            "artifacts; the exponential-in-d shape emerges already at "
            "d ≈ 4–24, which is what is swept here."
        ),
        elapsed_seconds=watch.elapsed,
    )
