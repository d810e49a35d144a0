"""EXP-11 — the static d-out baseline (Lemma B.1).

Reproduces the appendix baseline: a *static* graph where every node picks
``d`` random neighbours is a Θ(1)-expander w.h.p. already at ``d = 3`` —
in stark contrast with the *dynamic* SDG at the same ``d``, which has
isolated nodes.  This is the cleanest demonstration that the paper's
negative results come from churn, not from sparsity.
"""

from __future__ import annotations

from repro.analysis.expansion import adversarial_expansion_upper_bound
from repro.analysis.isolated import isolated_fraction
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.models import static_d_out_snapshot
from repro.scenario import ScenarioSpec, simulate
from repro.theory.static import nonexpansion_union_bound
from repro.util.rng import derive_seeds
from repro.util.stats import mean_confidence_interval

SDG_SPEC = ScenarioSpec(churn="streaming", policy="none")

COLUMNS = [
    "graph",
    "n",
    "d",
    "worst_expansion_found",
    "isolated_fraction",
    "expander_above_0.1",
]


@register(
    "EXP-11",
    "Static d-out baseline vs dynamic SDG at equal d",
    "Lemma B.1 (appendix); contrast with Lemma 3.5",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials, ds = 300, 2, [3, 4]
    else:
        n, trials, ds = 1500, 4, [3, 4, 6]

    rows: list[dict] = []
    with Stopwatch() as watch:
        union_bounds = {}
        for d in ds:
            worst = float("inf")
            for child in derive_seeds(seed, "exp11-static", trials):
                snap = static_d_out_snapshot(n, d, seed=child)
                probe = adversarial_expansion_upper_bound(snap, seed=child)
                worst = min(worst, probe.min_ratio)
            rows.append(
                {
                    "graph": "static d-out",
                    "n": n,
                    "d": d,
                    "worst_expansion_found": worst,
                    "isolated_fraction": 0.0,
                    "expander_above_0.1": worst > 0.1,
                }
            )
            union_bounds[d] = nonexpansion_union_bound(n, d)

            fractions = []
            for child in derive_seeds(seed, "exp11-dynamic", trials):
                sim = simulate(SDG_SPEC.with_(n=n, d=d, horizon=n), seed=child)
                fractions.append(isolated_fraction(sim.snapshot()))
            iso = mean_confidence_interval(fractions).mean
            rows.append(
                {
                    "graph": "SDG (dynamic)",
                    "n": n,
                    "d": d,
                    "worst_expansion_found": 0.0 if iso > 0 else None,
                    "isolated_fraction": iso,
                    "expander_above_0.1": False if iso > 0 else None,
                }
            )

    static_rows = [r for r in rows if r["graph"] == "static d-out"]
    sdg_rows = [r for r in rows if r["graph"] != "static d-out"]
    return ExperimentResult(
        experiment_id="EXP-11",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "static_graphs_expand_at_d3": all(
                r["expander_above_0.1"] for r in static_rows
            ),
            "dynamic_sdg_has_isolated_nodes": all(
                r["isolated_fraction"] > 0 for r in sdg_rows
            ),
            "lemma_b1_union_bound_at_d3": union_bounds.get(3),
            "contrast_reproduced": all(
                r["expander_above_0.1"] for r in static_rows
            )
            and any(r["isolated_fraction"] > 0 for r in sdg_rows),
        },
        elapsed_seconds=watch.elapsed,
    )
