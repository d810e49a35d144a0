"""EXP-03 — whole-graph expansion with edge regeneration.

Reproduces Theorem 3.15 (SDGR, d ≥ 14... wait) and Theorem 4.16 (PDGR,
d ≥ 35): snapshots are ε-expanders with ε ≥ 0.1 at *every* set size.
Three independent measurements:

1. **exact** vertex expansion by subset enumeration at tiny n (certifies
   the constant exactly where enumeration is feasible);
2. **adversarial probes** over the full size range at realistic n;
3. **spectral gap** of the normalized Laplacian (independent evidence via
   Cheeger's inequality).

A no-regeneration control at the same (n, d) shows what regeneration buys.
"""

from __future__ import annotations

from repro.analysis.expansion import (
    probe_network_expansion,
    vertex_expansion_exact,
)
from repro.analysis.spectral import normalized_laplacian_lambda2
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec, simulate
from repro.util.rng import derive_seed, derive_seeds

from repro.theory.expansion import EXPANSION_THRESHOLD

COLUMNS = [
    "model",
    "n",
    "d",
    "method",
    "expansion_measure",
    "above_0.1",
]

SDGR_SPEC = ScenarioSpec(churn="streaming", policy="regen")
PDGR_SPEC = ScenarioSpec(churn="poisson", policy="regen")
SDG_SPEC = ScenarioSpec(churn="streaming", policy="none")


@register(
    "EXP-03",
    "Θ(1)-expansion with edge regeneration",
    "Table 1 row 2 (right); Theorem 3.15 (SDGR), Theorem 4.16 (PDGR)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        probe_n, trials, exact_trials = 300, 2, 2
    else:
        probe_n, trials, exact_trials = 1200, 4, 6

    rows: list[dict] = []
    with Stopwatch() as watch:
        # 1. Exact expansion at tiny n (d scaled to keep the graph sparse
        #    relative to n — at n=16, d=14 would be near-complete).
        for child in derive_seeds(seed, "exp03-exact", exact_trials):
            sim = simulate(SDGR_SPEC.with_(n=16, d=5, horizon=32), seed=child)
            probe = vertex_expansion_exact(sim.snapshot())
            rows.append(
                {
                    "model": "SDGR",
                    "n": 16,
                    "d": 5,
                    "method": "exact",
                    "expansion_measure": probe.min_ratio,
                    "above_0.1": probe.min_ratio > EXPANSION_THRESHOLD,
                }
            )

        # 2. Adversarial probes at the paper's degree thresholds.
        for model_name, d in [("SDGR", 14), ("PDGR", 35)]:
            worst = None
            for child in derive_seeds(seed, "exp03-probe", trials):
                if model_name == "SDGR":
                    sim = simulate(
                        SDGR_SPEC.with_(n=probe_n, d=d, horizon=probe_n),
                        seed=child,
                    )
                else:
                    sim = simulate(PDGR_SPEC.with_(n=probe_n, d=d), seed=child)
                # Live-network probe on the CSR analysis plane: the
                # backend state exports a zero-copy view, so no snapshot
                # is frozen just to be converted back.
                probe = probe_network_expansion(sim.network, seed=child)
                if worst is None or probe.min_ratio < worst.min_ratio:
                    worst = probe
            assert worst is not None
            rows.append(
                {
                    "model": model_name,
                    "n": probe_n,
                    "d": d,
                    "method": "adversarial probe",
                    "expansion_measure": worst.min_ratio,
                    "above_0.1": worst.min_ratio > EXPANSION_THRESHOLD,
                }
            )

        # 3. Spectral gap evidence, on the CSR analysis plane: the scipy
        #    Laplacian is assembled straight from the session's zero-copy
        #    view.
        sim = simulate(
            SDGR_SPEC.with_(n=probe_n, d=14, horizon=probe_n),
            seed=derive_seed(seed, "exp03-spectral", 0),
        )
        lam2 = normalized_laplacian_lambda2(sim.csr_view())
        rows.append(
            {
                "model": "SDGR",
                "n": probe_n,
                "d": 14,
                "method": "spectral gap λ2",
                "expansion_measure": lam2,
                "above_0.1": lam2 > 0.1,
            }
        )

        # 4. Control: no regeneration at the same degree has zero
        #    expansion as soon as one isolated node exists (larger d
        #    merely makes that event rarer — use small d to show it).
        control = simulate(
            SDG_SPEC.with_(n=probe_n, d=2, horizon=probe_n),
            seed=derive_seed(seed, "exp03-control", 0),
        ).network
        control_probe = probe_network_expansion(
            control, seed=derive_seed(seed, "exp03-control-probe", 0)
        )
        rows.append(
            {
                "model": "SDG (control)",
                "n": probe_n,
                "d": 2,
                "method": "adversarial probe",
                "expansion_measure": control_probe.min_ratio,
                "above_0.1": control_probe.min_ratio > EXPANSION_THRESHOLD,
            }
        )

    regen_rows = [r for r in rows if "control" not in r["model"]]
    return ExperimentResult(
        experiment_id="EXP-03",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "regeneration_models_all_above_0.1": all(
                r["above_0.1"] for r in regen_rows
            ),
            "no_regen_control_expansion": control_probe.min_ratio,
            "control_fails_expansion": control_probe.min_ratio
            <= EXPANSION_THRESHOLD,
        },
        notes=(
            "Exact enumeration uses n=16/d=5 (enumeration is infeasible "
            "beyond n≈22; at n=16 the paper's d=14 would be near-complete, "
            "so the degree is scaled while keeping d << n)."
        ),
        elapsed_seconds=watch.elapsed,
    )
