"""EXP-17 (extension) — robustness to the lifetime distribution.

The paper's intro claims its qualitative findings "are robust to
different modelling choices" and models lifetimes as exponential; real
P2P session lengths are heavy-tailed.  This experiment re-runs the
regeneration dichotomy under four lifetime laws with the *same mean*
(hence the same churn rate, by Little's law):

* exponential (the paper's Definition 4.1),
* Weibull shape 0.5 (stretched-exponential tail, many infant deaths),
* Pareto α = 1.5 (power-law tail),
* deterministic (the streaming model's continuous cousin),

measuring the isolated fraction without regeneration, completeness and
speed of flooding with regeneration, and flooding under 30 % message
loss.  The paper's dichotomy should survive every law.
"""

from __future__ import annotations

import math

from repro.analysis.isolated import isolated_fraction
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec, simulate
from repro.sweep import SweepSpec, measurement, run_sweep
from repro.util.rng import SeedLike
from repro.util.stats import mean_confidence_interval

COLUMNS = [
    "lifetime_law",
    "mean_size",
    "isolated_fraction_no_regen",
    "flood_completed",
    "flood_rounds",
    "lossy_flood_rounds",
]

#: label → the generalized driver's lifetime churn parameters.
LAWS = [
    ("exponential (paper)", {"lifetime": "exponential"}),
    ("Weibull k=0.5", {"lifetime": "weibull", "lifetime_params": {"shape": 0.5}}),
    ("Pareto α=1.5", {"lifetime": "pareto", "lifetime_params": {"alpha": 1.5}}),
    ("deterministic", {"lifetime": "fixed"}),
]


@measurement("exp17-law-cell")
def law_cell(
    spec: ScenarioSpec, seed: SeedLike, iso_d: int, flood_d: int
) -> dict:
    """One lifetime-law cell: the same child seeds all three sessions
    (isolation without regeneration, flooding, lossy flooding), exactly
    as the hand-written trial loop did."""
    no_regen = simulate(spec.with_(policy="none", d=iso_d), seed=seed)
    regen = spec.with_(policy="regen", d=flood_d)
    n = spec.n

    flood = simulate(
        regen.with_(
            protocol="discretized",
            protocol_params={"max_rounds": 60 * int(math.log2(n))},
        ),
        seed=seed,
    ).flood()

    lossy = simulate(
        regen.with_(
            protocol="lossy",
            protocol_params={
                "loss": 0.3,
                "max_rounds": 80 * int(math.log2(n)),
            },
        ),
        seed=seed,
    ).flood(seed=seed)

    return {
        "alive": int(no_regen.network.num_alive()),
        "isolated_fraction": float(isolated_fraction(no_regen.snapshot())),
        "flood_completed": bool(flood.completed),
        "flood_rounds": (
            flood.completion_round
            if flood.completed and flood.completion_round is not None
            else None
        ),
        "lossy_rounds": (
            lossy.completion_round
            if lossy.completed and lossy.completion_round is not None
            else None
        ),
    }


@register(
    "EXP-17",
    "Extension: robustness to the node-lifetime distribution",
    "§1 robustness claim; §5 remarks (heavy-tailed P2P sessions)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, d, trials = 250.0, 6, 2
    else:
        n, d, trials = 800.0, 6, 4
    # Isolation is measured at d=3, where the expected isolated fraction
    # (≈ 2.6 %) is resolvable at these sizes; flooding at d=6.
    iso_d = 3
    # Heavy-tailed laws converge to stationarity slowly (long-lived nodes
    # accumulate over many means); warm for 8 means everywhere.
    warm = 8.0 * n

    # The lifetime-law axis × `trials` seed replicas, declared as one
    # sweep; every cell runs all three sessions off its own child seed.
    sweep = SweepSpec(
        base=ScenarioSpec(churn="general", n=n),
        axes=[
            (
                "scenario",
                tuple(
                    {"churn_params": {"warm_time": warm, **law_params}}
                    for _, law_params in LAWS
                ),
            )
        ],
        replicas=trials,
        seed=seed,
        stream="exp17-laws",
        measure="exp17-law-cell",
        measure_params={"iso_d": iso_d, "flood_d": d},
    )

    rows: list[dict] = []
    with Stopwatch() as watch:
        groups = run_sweep(sweep).value_groups()
        for (label, _), cells in zip(LAWS, groups):
            rounds = [
                c["flood_rounds"] for c in cells if c["flood_rounds"] is not None
            ]
            lossy_rounds = [
                c["lossy_rounds"] for c in cells if c["lossy_rounds"] is not None
            ]
            rows.append(
                {
                    "lifetime_law": label,
                    "mean_size": mean_confidence_interval(
                        [c["alive"] for c in cells]
                    ).mean,
                    "isolated_fraction_no_regen": mean_confidence_interval(
                        [c["isolated_fraction"] for c in cells]
                    ).mean,
                    "flood_completed": all(c["flood_completed"] for c in cells),
                    "flood_rounds": (
                        mean_confidence_interval(rounds).mean if rounds else None
                    ),
                    "lossy_flood_rounds": (
                        mean_confidence_interval(lossy_rounds).mean
                        if lossy_rounds
                        else None
                    ),
                }
            )

    log2n = math.log2(n)
    return ExperimentResult(
        experiment_id="EXP-17",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "regen_floods_completely_under_every_law": all(
                r["flood_completed"] for r in rows
            ),
            "flooding_stays_logarithmic": all(
                r["flood_rounds"] is not None and r["flood_rounds"] <= 6 * log2n
                for r in rows
            ),
            "no_regen_isolates_under_every_law": all(
                r["isolated_fraction_no_regen"] > 0 for r in rows
            ),
            "lossy_flooding_degrades_gracefully": all(
                r["lossy_flood_rounds"] is not None
                and r["lossy_flood_rounds"] <= 12 * log2n
                for r in rows
            ),
        },
        notes=(
            "Extension beyond the paper, testing its §1 robustness claim: "
            "the regeneration dichotomy (isolated nodes without it, "
            "complete O(log n) flooding with it) holds for heavy-tailed "
            "Weibull/Pareto and deterministic lifetimes at equal mean, and "
            "under 30% message loss.  Heavy-tailed laws reach stationary "
            "size more slowly (Little's law converges from below), so the "
            "measured mean sizes sit below λ·E[L]."
        ),
        elapsed_seconds=watch.elapsed,
    )
