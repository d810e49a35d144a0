"""EXP-04 — flooding can fail without regeneration.

Reproduces Theorem 3.7 (SDG) and Theorem 4.12 (PDG):

1. with probability Θ_d(1) (bounded below by Ω(e^{−d²})) the informed set
   never exceeds ``d + 1`` nodes — the source's targets are all
   isolated-forever nodes;
2. *complete* flooding (informing every node) takes Ω_d(n) time, because
   isolated nodes can only "complete" by dying.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec
from repro.sweep import SweepSpec, run_sweep
from repro.theory.flooding import (
    stall_probability_bound,
    stall_probability_prediction,
)
from repro.util.stats import fraction_true

COLUMNS = [
    "model",
    "n",
    "d",
    "trials",
    "stall_probability",
    "prediction",
    "paper_lower_bound",
    "above_paper_bound",
]

SDG_SPEC = ScenarioSpec(churn="streaming", policy="none", protocol="discrete")
PDG_SPEC = ScenarioSpec(churn="poisson", policy="none", protocol="asynchronous")


@register(
    "EXP-04",
    "Flooding may not complete without regeneration",
    "Table 1 row 3; Theorem 3.7 (SDG), Theorem 4.12 (PDG)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials, ds = 150, 120, [1]
    else:
        n, trials, ds = 300, 400, [1, 2]

    pdg_trials = max(trials // 3, 30)
    sdg_sweep = SweepSpec(
        base=SDG_SPEC.with_(
            n=n,
            horizon=n,
            protocol_params={"max_rounds": 2 * n, "stop_when_extinct": False},
        ),
        axes=[("d", tuple(ds))],
        replicas=trials,
        seed=seed,
        stream="exp04-sdg",
        measure="flood_stats",
    )
    pdg_sweep = SweepSpec(
        base=PDG_SPEC.with_(n=n, protocol_params={"max_time": float(2 * n)}),
        axes=[("d", tuple(ds))],
        replicas=pdg_trials,
        seed=seed,
        stream="exp04-pdg",
        measure="flood_stats",
    )

    rows: list[dict] = []
    with Stopwatch() as watch:
        completion_rounds: list[int] = []
        for d, floods in zip(ds, run_sweep(sdg_sweep).value_groups()):
            stalls = [flood["max_informed"] <= d + 1 for flood in floods]
            completion_rounds.extend(
                flood["completion_round"]
                for flood in floods
                if flood["completed"] and flood["completion_round"] is not None
            )
            probability = fraction_true(stalls)
            rows.append(
                {
                    "model": "SDG",
                    "n": n,
                    "d": d,
                    "trials": trials,
                    "stall_probability": probability,
                    "prediction": stall_probability_prediction(d),
                    "paper_lower_bound": stall_probability_bound(d),
                    # Only resolvable when the predicted rate would yield
                    # a few events at this trial count.
                    "above_paper_bound": (
                        probability >= stall_probability_bound(d)
                        if stall_probability_prediction(d) * trials >= 3
                        else None
                    ),
                }
            )

        for d, floods in zip(ds, run_sweep(pdg_sweep).value_groups()):
            stalls = [flood["max_informed"] <= d + 1 for flood in floods]
            probability = fraction_true(stalls)
            rows.append(
                {
                    "model": "PDG",
                    "n": n,
                    "d": d,
                    "trials": pdg_trials,
                    "stall_probability": probability,
                    "prediction": stall_probability_prediction(d, streaming=False),
                    "paper_lower_bound": stall_probability_bound(d, streaming=False),
                    "above_paper_bound": (
                        probability
                        >= stall_probability_bound(d, streaming=False)
                        if stall_probability_prediction(d, streaming=False)
                        * pdg_trials
                        >= 3
                        else None
                    ),
                }
            )

        # Completion-time lower bound: the theorem's Ω_d(n) holds w.h.p.,
        # not surely — a lucky snapshot with zero isolated-forever nodes
        # completes fast.  Measure the *typical* (median) completion time
        # and the fraction of abnormally early completions.
        completion_rounds.sort()
        median_completion = (
            completion_rounds[len(completion_rounds) // 2]
            if completion_rounds
            else None
        )
        early_fraction = (
            sum(1 for r in completion_rounds if r < 0.4 * n)
            / len(completion_rounds)
            if completion_rounds
            else 0.0
        )

    return ExperimentResult(
        experiment_id="EXP-04",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "stall_observed_with_constant_probability": any(
                r["stall_probability"] > 0 for r in rows
            ),
            "all_resolvable_rows_above_paper_bound": all(
                r["above_paper_bound"]
                for r in rows
                if r["above_paper_bound"] is not None
            ),
            "median_completion_round_when_completed": median_completion,
            "early_completion_fraction": early_fraction,
            "completion_typically_takes_omega_n": (
                median_completion is None or median_completion >= 0.4 * n
            ),
            "n": n,
        },
        notes=(
            "The paper's Ω(e^{−d²}) constants are astronomically small; "
            "the measurable regime is d ∈ {1, 2} where the first-order "
            "prediction p_iso^d·e^{−d} gives percent-level probabilities. "
            "Completion requires waiting for isolated nodes to die, hence "
            "≥ Ω(n) rounds whenever flooding completes at all."
        ),
        elapsed_seconds=watch.elapsed,
    )
