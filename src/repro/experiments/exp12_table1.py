"""EXP-12 — the headline reproduction of the paper's Table 1.

One condensed measurement per Table-1 cell, producing the same 2×2×2
summary (expansion / flooding × with / without regeneration × streaming /
Poisson) with measured values instead of theorem citations.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec
from repro.sweep import SweepSpec, fraction_at_round, run_sweep
from repro.theory.flooding import partial_flooding_rounds
from repro.util.stats import fraction_true, mean_confidence_interval

COLUMNS = ["cell", "model", "paper_claim", "measured", "agrees"]

# The four Table-1 models as scenario templates; every cell below is one
# of these at a cell-specific (d, horizon, protocol).
SPECS = {
    "SDG": ScenarioSpec(churn="streaming", policy="none"),
    "SDGR": ScenarioSpec(churn="streaming", policy="regen"),
    "PDG": ScenarioSpec(churn="poisson", policy="none"),
    "PDGR": ScenarioSpec(churn="poisson", policy="regen"),
}


def _model_overrides(name: str, n: int, d: int, **changes) -> dict:
    """Scenario-axis overrides for one warm Table-1 model instance
    (streaming models run n extra rounds to reach age-stationarity)."""
    spec = SPECS[name]
    overrides = {
        "churn": spec.churn,
        "policy": spec.policy,
        "d": d,
        "horizon": n if name.startswith("S") else 0,
        **changes,
    }
    return overrides


def _model_sweep(
    models: list[dict], n: int, trials: int, seed: int, stream: str,
    measure: str,
) -> SweepSpec:
    """One Table-1 section: a model axis × `trials` seed replicas."""
    return SweepSpec(
        base=SPECS["SDG"].with_(n=n),
        axes=[("scenario", tuple(models))],
        replicas=trials,
        seed=seed,
        stream=stream,
        measure=measure,
    )


@register(
    "EXP-12",
    "Table 1 — full summary with measured values",
    "Table 1 (all eight cells)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials, d_noregen, d_regen = 300, 3, 20, 21
    else:
        n, trials, d_noregen, d_regen = 1000, 5, 20, 21
    d_pdgr = 35

    partial_horizon = partial_flooding_rounds(n, 12)
    complete_rounds = 40 * int(math.log2(n))
    # One declared sweep per Table-1 section, each on its own named seed
    # stream.
    sweeps = {
        "isolated": _model_sweep(
            [_model_overrides(m, n, 2) for m in ("SDG", "PDG")],
            n, trials, seed, "exp12-isolated", "isolated_fraction",
        ),
        "window": _model_sweep(
            [_model_overrides(m, n, d_noregen) for m in ("SDG", "PDG")],
            n, trials, seed, "exp12-window", "window_expansion_probe",
        ),
        "regen": _model_sweep(
            [
                _model_overrides("SDGR", n, 14),
                _model_overrides("PDGR", n, d_pdgr),
            ],
            n, trials, seed, "exp12-regen", "adversarial_expansion",
        ),
        "stall": _model_sweep(
            [
                _model_overrides(
                    "SDG", n, 1,
                    protocol="discrete",
                    protocol_params={
                        "max_rounds": n, "stop_when_extinct": False,
                    },
                )
            ],
            n, max(20, trials * 10), seed, "exp12-stall", "flood_stats",
        ),
        "partial": _model_sweep(
            [
                _model_overrides(
                    m, n, 12,
                    protocol="discrete" if m == "SDG" else "discretized",
                    protocol_params={"max_rounds": partial_horizon},
                )
                for m in ("SDG", "PDG")
            ],
            n, trials, seed, "exp12-partial", "flood_stats",
        ),
        "complete": _model_sweep(
            [
                _model_overrides(
                    m, n, d_use,
                    protocol="discrete" if m == "SDGR" else "discretized",
                    protocol_params={"max_rounds": complete_rounds},
                )
                for m, d_use in (("SDGR", d_regen), ("PDGR", d_pdgr))
            ],
            n, trials, seed, "exp12-complete", "flood_stats",
        ),
    }

    rows: list[dict] = []
    with Stopwatch() as watch:
        # --- Expansion negative: isolated nodes without regeneration.
        groups = run_sweep(sweeps["isolated"]).value_groups()
        for name, fractions in zip(["SDG", "PDG"], groups):
            mean_fraction = mean_confidence_interval(fractions).mean
            rows.append(
                {
                    "cell": "expansion / negative",
                    "model": name,
                    "paper_claim": "constant fraction of isolated nodes (d=2)",
                    "measured": f"isolated fraction {mean_fraction:.3f}",
                    "agrees": mean_fraction > 0,
                }
            )

        # --- Expansion positive: large sets expand without regeneration.
        groups = run_sweep(sweeps["window"]).value_groups()
        for name, probes in zip(["SDG", "PDG"], groups):
            worst = min(probe["min_ratio"] for probe in probes)
            rows.append(
                {
                    "cell": "expansion / large sets",
                    "model": name,
                    "paper_claim": "big subsets expand ≥ 0.1 (d=20)",
                    "measured": f"worst windowed expansion {worst:.3f}",
                    "agrees": worst > 0.1,
                }
            )

        # --- Expansion positive: full expanders with regeneration.
        groups = run_sweep(sweeps["regen"]).value_groups()
        for (name, d_use), probes in zip(
            [("SDGR", 14), ("PDGR", d_pdgr)], groups
        ):
            worst = min(probe["min_ratio"] for probe in probes)
            rows.append(
                {
                    "cell": "expansion / regeneration",
                    "model": name,
                    "paper_claim": f"ε-expander, ε ≥ 0.1 (d={d_use})",
                    "measured": f"worst expansion {worst:.3f}",
                    "agrees": worst > 0.1,
                }
            )

        # --- Flooding negative: stall probability at d=1.
        floods = run_sweep(sweeps["stall"]).values()
        stall_probability = fraction_true(
            [flood["max_informed"] <= 2 for flood in floods]
        )
        rows.append(
            {
                "cell": "flooding / negative",
                "model": "SDG/PDG",
                "paper_claim": "flooding stalls w.p. Θ_d(1) (d=1)",
                "measured": f"stall probability {stall_probability:.3f}",
                "agrees": stall_probability > 0,
            }
        )

        # --- Flooding positive: partial flooding without regeneration.
        groups = run_sweep(sweeps["partial"]).value_groups()
        for name, floods in zip(["SDG", "PDG"], groups):
            mean_fraction = mean_confidence_interval(
                [fraction_at_round(flood, partial_horizon) for flood in floods]
            ).mean
            rows.append(
                {
                    "cell": "flooding / partial",
                    "model": name,
                    "paper_claim": "1−exp(−Ω(d)) informed in O(log n) (d=12)",
                    "measured": f"informed fraction {mean_fraction:.3f} "
                    f"in {partial_horizon} rounds",
                    "agrees": mean_fraction > 0.65,
                }
            )

        # --- Flooding positive: complete flooding with regeneration.
        groups = run_sweep(sweeps["complete"]).value_groups()
        for (name, d_use), floods in zip(
            [("SDGR", d_regen), ("PDGR", d_pdgr)], groups
        ):
            worst_completion = max(
                flood["completion_round"] if flood["completed"] else math.inf
                for flood in floods
            )
            rows.append(
                {
                    "cell": "flooding / complete",
                    "model": name,
                    "paper_claim": f"flooding time O(log n) w.h.p. (d={d_use})",
                    "measured": f"worst completion {worst_completion} rounds "
                    f"(log2 n = {math.log2(n):.1f})",
                    "agrees": worst_completion <= 6 * math.log2(n),
                }
            )

    return ExperimentResult(
        experiment_id="EXP-12",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "all_cells_agree": all(r["agrees"] for r in rows),
            "cells_measured": len(rows),
        },
        elapsed_seconds=watch.elapsed,
    )
