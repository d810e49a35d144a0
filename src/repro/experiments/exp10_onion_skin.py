"""EXP-10 — the onion-skin processes of the flooding proofs.

Reproduces Claims 3.10/3.11 and Lemma 3.9 (streaming) plus Lemma 7.8
(Poisson): the proof's constructive process grows its informed layers by a
factor ≥ d/20 (streaming) / d/48 (Poisson) per step, reaches a constant
fraction of the network in O(log n / log d) phases, and succeeds with
probability ≥ 1 − 4e^{−d/100} (resp. 1 − 2e^{−d/576}).

This is the one experiment that builds no dynamic network: the onion-skin
processes are standalone proof artifacts (see :mod:`repro.onion`), so
there is nothing for a :class:`~repro.scenario.spec.ScenarioSpec` to
declare — every driver-based experiment goes through the scenario layer.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.onion import run_poisson_onion_skin, run_streaming_onion_skin
from repro.theory.onion import (
    claim_311_lower_bound,
    infinite_product_success_probability,
    onion_growth_factor_poisson,
    onion_growth_factor_streaming,
)
from repro.util.rng import derive_seeds
from repro.util.stats import fraction_true

COLUMNS = [
    "process",
    "n",
    "d",
    "trials",
    "success_rate",
    "paper_bound",
    "median_early_growth",
    "claimed_growth",
]


def _early_growth(factors: list[float]) -> float:
    """Median growth over the pre-saturation steps (first two ratios)."""
    head = [f for f in factors[:2] if f > 0]
    if not head:
        return float("nan")
    head.sort()
    return head[len(head) // 2]


@register(
    "EXP-10",
    "Onion-skin process growth and success probability",
    "Claims 3.10/3.11, Lemma 3.9 (streaming); Lemma 7.8 (Poisson)",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, trials = 3000, 20
        streaming_d, poisson_d = 200, 240
    else:
        n, trials = 10_000, 30
        streaming_d, poisson_d = 200, 1152

    rows: list[dict] = []
    with Stopwatch() as watch:
        # Streaming process at the paper's d ≥ 200.
        successes, growths = [], []
        for child in derive_seeds(seed, "exp10-onion", trials):
            res = run_streaming_onion_skin(n=n, d=streaming_d, seed=child)
            successes.append(res.reached_target)
            growths.append(_early_growth(res.layer_growth_factors()))
        success_rate = fraction_true(successes)
        growths = [g for g in growths if g == g]
        growths.sort()
        median_growth = growths[len(growths) // 2] if growths else float("nan")
        rows.append(
            {
                "process": "streaming (§3.1.2)",
                "n": n,
                "d": streaming_d,
                "trials": trials,
                "success_rate": success_rate,
                "paper_bound": claim_311_lower_bound(streaming_d),
                "median_early_growth": median_growth,
                "claimed_growth": onion_growth_factor_streaming(streaming_d),
            }
        )

        # Poisson (extended) process.
        successes, growths = [], []
        for child in derive_seeds(seed, "exp10-skin", trials):
            res = run_poisson_onion_skin(n=n, d=poisson_d, seed=child)
            successes.append(res.reached_target)
            sequence = [1] + res.old_layers[:1] + res.young_layers[:1]
            ratios = [
                b / a for a, b in zip(sequence, sequence[1:]) if a > 0 and b > 0
            ]
            growths.append(ratios[0] if ratios else float("nan"))
        p_success = fraction_true(successes)
        growths = [g for g in growths if g == g]
        growths.sort()
        p_growth = growths[len(growths) // 2] if growths else float("nan")
        poisson_paper = max(0.0, 1.0 - 2.0 * 2.718 ** (-poisson_d / 576.0))
        rows.append(
            {
                "process": "Poisson extended (§7.2.4)",
                "n": n,
                "d": poisson_d,
                "trials": trials,
                "success_rate": p_success,
                "paper_bound": poisson_paper,
                "median_early_growth": p_growth,
                "claimed_growth": onion_growth_factor_poisson(poisson_d),
            }
        )

        product = infinite_product_success_probability(streaming_d)

    return ExperimentResult(
        experiment_id="EXP-10",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "success_rates_meet_paper_bounds": all(
                r["success_rate"] >= r["paper_bound"] - 0.05 for r in rows
            ),
            "growth_meets_claims": all(
                r["median_early_growth"] >= r["claimed_growth"]
                for r in rows
                if r["median_early_growth"] == r["median_early_growth"]
            ),
            "claim_311_infinite_product": product,
            "claim_311_closed_form": claim_311_lower_bound(streaming_d),
        },
        notes=(
            "Growth factors are measured on pre-saturation layers only "
            "(once a layer holds a constant fraction of Y or O, growth "
            "saturates by construction).  Quick mode scales the Poisson d "
            "down from the paper's 1152 (shape is identical)."
        ),
        elapsed_seconds=watch.elapsed,
    )
