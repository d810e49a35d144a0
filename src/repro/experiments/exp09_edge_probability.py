"""EXP-09 — request-destination probabilities under regeneration.

Reproduces Lemma 3.14 (SDGR) and Lemma 4.15 (PDGR): the probability that a
fixed request of an age-``k+1`` node currently points at a *specific older*
node is at most ``(1/(n−1))(1+1/(n−1))^k`` (streaming) — i.e. slightly
inflated over uniform, by at most a factor ``e`` — and the Poisson
analogue ``(1/0.8n)(1+i/1.7n)``.
"""

from __future__ import annotations

from repro.analysis.edge_prob import (
    poisson_slot_destination_frequency,
    streaming_slot_destination_frequency,
)
from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec, simulate
from repro.util.rng import derive_seed

# The streaming rows use the exact standalone request simulator (no
# driver); only the PDGR snapshot rows build a network.
PDGR_SPEC = ScenarioSpec(churn="poisson", policy="regen", d=8)

COLUMNS = [
    "model",
    "n",
    "owner_age",
    "empirical_per_pair",
    "paper_bound",
    "uniform_1_over_n",
    "within_bound",
]


@register(
    "EXP-09",
    "Edge-destination probabilities under regeneration",
    "Lemma 3.14 (SDGR), Lemma 4.15 (PDGR)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials = 60, 30_000
        owner_ages = [5, 20, 40]
        pdgr_n = 300
    else:
        n, trials = 120, 120_000
        owner_ages = [5, 20, 40, 80, 110]
        pdgr_n = 800

    rows: list[dict] = []
    with Stopwatch() as watch:
        for owner_rounds in owner_ages:
            target_age = min(n - 2, owner_rounds + (n - owner_rounds) // 2)
            freq = streaming_slot_destination_frequency(
                n=n,
                owner_rounds=owner_rounds,
                target_age=target_age,
                trials=trials,
                seed=derive_seed(seed, f"exp09-owner-{owner_rounds}", 0),
            )
            rows.append(
                {
                    "model": "SDGR (exact mini-sim)",
                    "n": n,
                    "owner_age": owner_rounds,
                    "empirical_per_pair": freq.empirical,
                    "paper_bound": freq.bound,
                    "uniform_1_over_n": 1.0 / (n - 1),
                    "within_bound": freq.within_bound,
                }
            )

        sim = simulate(
            PDGR_SPEC.with_(n=pdgr_n),
            seed=derive_seed(seed, "exp09-pdgr", 0),
        )
        buckets = poisson_slot_destination_frequency(sim.snapshot(), n=float(pdgr_n))
        for bucket in buckets:
            if bucket.num_owners < 5:
                continue
            # Wider slack for sparsely populated (oldest) buckets, where
            # the per-pair estimate averages over few owners.  Beyond age
            # ≈ 2.5n the snapshot estimator itself is biased (it
            # conditions on the *target* having survived to the snapshot,
            # which Lemma 4.15's a-priori bound does not), so those
            # buckets are reported but not scored.
            if bucket.age_high > 2.5 * pdgr_n:
                within = None
            elif bucket.num_owners >= 20:
                within = bucket.per_pair_frequency <= bucket.bound_at_bucket * 1.5
            else:
                within = bucket.per_pair_frequency <= bucket.bound_at_bucket * 2.5
            rows.append(
                {
                    "model": "PDGR (snapshot)",
                    "n": pdgr_n,
                    "owner_age": round(bucket.age_high, 1),
                    "empirical_per_pair": bucket.per_pair_frequency,
                    "paper_bound": bucket.bound_at_bucket,
                    "uniform_1_over_n": 1.0 / pdgr_n,
                    "within_bound": within,
                }
            )

        streaming_rows = [r for r in rows if "SDGR" in r["model"]]
        monotone = all(
            a["empirical_per_pair"] <= b["empirical_per_pair"] * 1.25
            for a, b in zip(streaming_rows, streaming_rows[1:])
        )

    return ExperimentResult(
        experiment_id="EXP-09",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "all_within_bounds": all(
                r["within_bound"]
                for r in rows
                if r["within_bound"] is not None
            ),
            "frequency_increases_with_owner_age": monotone,
            # Streaming: (1+1/(n−1))^k ≤ e, so inflation over uniform is
            # capped by e.  Poisson: the bound grows with the owner's age
            # (old nodes genuinely exceed e — the ω(1/n) effect of §4.3).
            "max_inflation_streaming": max(
                r["empirical_per_pair"] / r["uniform_1_over_n"]
                for r in rows
                if "SDGR" in r["model"]
            ),
            "streaming_inflation_cap_e": 2.718,
            "max_inflation_poisson": max(
                (
                    r["empirical_per_pair"] / r["uniform_1_over_n"]
                    for r in rows
                    if "PDGR" in r["model"]
                ),
                default=None,
            ),
        },
        notes=(
            "The streaming rows use the exact standalone request simulator "
            "(the deterministic age structure makes the rest of the network "
            "irrelevant); the PDGR rows aggregate per-pair frequencies from "
            "a live snapshot, bucketed by owner age."
        ),
        elapsed_seconds=watch.elapsed,
    )
