"""EXP-01 — isolated nodes in the models without regeneration.

Reproduces Lemma 3.5 (SDG) and Lemma 4.10 (PDG): snapshots contain at
least ``(1/6)·n·e^{−2d}`` (streaming) / ``(1/18)·n·e^{−2d}`` (Poisson)
isolated nodes w.h.p., and those nodes stay isolated for life.  The
measured fractions are also compared against the sharper first-order
predictions (see :mod:`repro.theory.isolated`), and the decay across ``d``
is fitted to check the exp(−Θ(d)) shape.
"""

from __future__ import annotations

from repro.analysis.isolated import lifetime_isolated_census
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec, simulate
from repro.sweep import SweepSpec, run_sweep
from repro.theory.isolated import (
    isolated_fraction_lower_bound_poisson,
    isolated_fraction_lower_bound_streaming,
    isolated_fraction_prediction_poisson,
    isolated_fraction_prediction_streaming,
)
from repro.util.rng import derive_seed
from repro.util.stats import exponential_decay_fit, mean_confidence_interval

COLUMNS = [
    "model",
    "n",
    "d",
    "measured_fraction",
    "prediction",
    "paper_bound",
    "above_bound",
]

# SDG reaches age-stationarity after n post-warm-up rounds; PDG's 3n warm
# time (the spec default) is already stationary at hand-over.
SDG_SPEC = ScenarioSpec(churn="streaming", policy="none")
PDG_SPEC = ScenarioSpec(churn="poisson", policy="none")


@register(
    "EXP-01",
    "Isolated nodes without edge regeneration",
    "Table 1 row 1; Lemma 3.5 (SDG), Lemma 4.10 (PDG)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials, ds = 400, 4, [1, 2, 3, 4]
    else:
        n, trials, ds = 1500, 12, [1, 2, 3, 4, 5, 6]

    # One declared replica sweep per model: the d axis × `trials` seed
    # replicas, each family on its own named stream.
    models = [
        (
            "SDG",
            SweepSpec(
                base=SDG_SPEC.with_(n=n, horizon=n),
                axes=[("d", tuple(ds))],
                replicas=trials,
                seed=seed,
                stream="exp01-sdg",
                measure="isolated_fraction",
            ),
            isolated_fraction_prediction_streaming,
            isolated_fraction_lower_bound_streaming,
        ),
        (
            "PDG",
            SweepSpec(
                base=PDG_SPEC.with_(n=n),
                axes=[("d", tuple(ds))],
                replicas=trials,
                seed=seed,
                stream="exp01-pdg",
                measure="isolated_fraction",
            ),
            isolated_fraction_prediction_poisson,
            isolated_fraction_lower_bound_poisson,
        ),
    ]

    rows: list[dict] = []
    with Stopwatch() as watch:
        fractions: dict[str, dict[int, float]] = {}
        for model, sweep, prediction, bound in models:
            fractions[model] = {}
            for d, samples in zip(ds, run_sweep(sweep).value_groups()):
                ci = mean_confidence_interval(samples)
                fractions[model][d] = ci.mean
                rows.append(
                    {
                        "model": model,
                        "n": n,
                        "d": d,
                        "measured_fraction": ci.mean,
                        "prediction": prediction(d),
                        "paper_bound": bound(d),
                        "above_bound": ci.mean >= bound(d),
                    }
                )
        sdg_fractions = fractions["SDG"]
        pdg_fractions = fractions["PDG"]

        # Lemma 3.5's second claim: isolated nodes stay isolated for life.
        census_net = simulate(
            SDG_SPEC.with_(n=n, d=2, horizon=n),
            seed=derive_seed(seed, "exp01-census", 0),
        ).network
        census = lifetime_isolated_census(census_net, max_rounds=n)

        sdg_fit = exponential_decay_fit(ds, [sdg_fractions[d] for d in ds])
        pdg_fit = exponential_decay_fit(ds, [pdg_fractions[d] for d in ds])

    result = ExperimentResult(
        experiment_id="EXP-01",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "all_above_paper_bound": all(r["above_bound"] for r in rows),
            "sdg_decay_rate_per_d": sdg_fit.slope,
            "pdg_decay_rate_per_d": pdg_fit.slope,
            "decay_is_exponential_in_d": sdg_fit.slope < -0.3
            and pdg_fit.slope < -0.3,
            "census_initial_isolated": census.initial_isolated,
            "census_forever_isolated_fraction": (
                census.forever_isolated_fraction_of_tracked
            ),
            # Lemma 3.5 claims the snapshot holds ≥ n·e^{−2d}/6 nodes that
            # stay isolated for their whole life; the census's
            # died-isolated count is exactly that quantity.  (It does NOT
            # claim every currently-isolated node stays isolated — young
            # isolated nodes often pick up a later in-edge.)
            "census_forever_isolated_count": census.died_isolated,
            "forever_isolated_above_paper_bound": (
                census.died_isolated
                >= n * isolated_fraction_lower_bound_streaming(2)
            ),
        },
        notes=(
            "Paper bounds are loose union-bound constants; the first-order "
            "predictions (integrals over the age distribution) are the "
            "expected operating point and track the measurements."
        ),
        elapsed_seconds=watch.elapsed,
    )
    return result
