"""EXP-08 — Poisson churn properties.

Reproduces the preliminary lemmas of §4.1 on the simulated jump chain:

* Lemma 4.4 — |N_t| concentrates in [0.9n, 1.1n] for t ≥ 3n;
* Lemma 4.6/4.7 — birth/death jump probabilities lie in [0.47, 0.53] at
  stationarity, and a fixed node dies next round with probability in
  [1/(2.2n), 1/(1.8n)];
* Lemma 4.8 — no alive node is older than 7 n log n rounds;
* the exact M/M/∞ mean curve E|N_t| = n(1 − e^{−t/n}) from a cold start.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, Stopwatch
from repro.experiments.registry import register
from repro.scenario import ScenarioSpec, simulate
from repro.sweep import SweepSpec, measurement, run_sweep
from repro.theory.churn import (
    expected_size_at,
    jump_probability_bounds,
    lifetime_horizon_rounds,
    size_concentration_bounds,
)
from repro.util.rng import SeedLike, derive_seed
from repro.util.stats import fraction_true

COLUMNS = ["property", "n", "measured", "paper_low", "paper_high", "within"]

PDG_SPEC = ScenarioSpec(churn="poisson", policy="none", d=1)


def _pdg(n: int, child, warm_time: float | None = None):
    """A scenario-built PDG driver (the lemmas probe it event by event)."""
    spec = PDG_SPEC.with_(n=n)
    if warm_time is not None:
        spec = spec.with_(churn_params={"warm_time": warm_time})
    return simulate(spec, seed=child).network


@measurement("exp08-size-concentration")
def size_concentration(
    spec: ScenarioSpec, seed: SeedLike, probes: int
) -> list[bool]:
    """Lemma 4.4 cell: probe |N_t| every n/10 time units at stationarity."""
    n = int(spec.n)
    conc = size_concentration_bounds(n)
    net = simulate(spec, seed=seed).network
    flags: list[bool] = []
    for _ in range(probes):
        net.advance_to_time(net.now + n / 10.0)
        flags.append(bool(conc.low <= net.num_alive() <= conc.high))
    return flags


@register(
    "EXP-08",
    "Poisson churn: concentration, jump probabilities, lifetimes",
    "Lemmas 4.4, 4.6, 4.7, 4.8",
)
def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    if quick:
        n, probes, trials = 500, 40, 2
    else:
        n, probes, trials = 2000, 100, 4

    rows: list[dict] = []
    with Stopwatch() as watch:
        # --- Lemma 4.4: size concentration across probe times ≥ 3n,
        #     declared as a replica sweep (one cell per trial network).
        conc = size_concentration_bounds(n)
        concentration_sweep = SweepSpec(
            base=PDG_SPEC.with_(n=n),
            replicas=trials,
            seed=seed,
            stream="exp08-concentration",
            measure="exp08-size-concentration",
            measure_params={"probes": probes},
        )
        in_window_flags = [
            flag
            for flags in run_sweep(concentration_sweep).values()
            for flag in flags
        ]
        concentration = fraction_true(in_window_flags)
        rows.append(
            {
                "property": "P(|N_t| in [0.9n, 1.1n])",
                "n": n,
                "measured": concentration,
                "paper_low": 1.0 - conc.failure_probability,
                "paper_high": 1.0,
                "within": concentration >= 0.95,
            }
        )

        # --- Lemma 4.7: empirical jump probabilities at stationarity.
        bounds = jump_probability_bounds()
        net = _pdg(n, derive_seed(seed, "exp08-jump", 0))
        births = 0
        events = 4000 if quick else 20000
        for record in net.advance_rounds_jump(events):
            births += record.is_birth
        birth_fraction = births / events
        rows.append(
            {
                "property": "P(next event is birth)",
                "n": n,
                "measured": birth_fraction,
                "paper_low": bounds.event_low,
                "paper_high": bounds.event_high,
                "within": bounds.event_low <= birth_fraction <= bounds.event_high,
            }
        )

        # --- Lemma 4.7: fixed-node death probability per round.  Unbiased
        # estimator: deaths divided by exposure (alive-node-rounds) —
        # measuring realised lifetimes instead would be censoring-biased.
        net = _pdg(n, derive_seed(seed, "exp08-death", 0))
        deaths = 0
        exposure = 0
        for _ in range(events):
            exposure += net.num_alive()
            record = net.advance_one_event()
            deaths += record.is_death
        implied_death_probability = deaths / exposure
        rows.append(
            {
                "property": "P(fixed node dies next round)",
                "n": n,
                "measured": implied_death_probability,
                "paper_low": bounds.fixed_death_low_factor / n,
                "paper_high": bounds.fixed_death_high_factor / n,
                "within": bounds.fixed_death_low_factor / n
                <= implied_death_probability
                <= bounds.fixed_death_high_factor / n,
            }
        )

        # --- Lemma 4.8: oldest node age (in rounds ≈ 2 × time units).
        net = _pdg(n, derive_seed(seed, "exp08-age", 0), warm_time=8.0 * n)
        snap = net.snapshot()
        oldest_rounds = 2.0 * max(snap.age(u) for u in snap.nodes)
        horizon = lifetime_horizon_rounds(n)
        rows.append(
            {
                "property": "oldest node age (rounds)",
                "n": n,
                "measured": oldest_rounds,
                "paper_low": 0.0,
                "paper_high": horizon,
                "within": oldest_rounds <= horizon,
            }
        )

        # --- cold-start growth curve vs the exact mean.
        curve_ok = True
        net = _pdg(n, derive_seed(seed, "exp08-growth", 0), warm_time=0)
        for t in [n / 4, n / 2, n, 2 * n]:
            net.advance_to_time(t)
            expected = expected_size_at(t, n)
            if abs(net.num_alive() - expected) > 5 * math.sqrt(expected):
                curve_ok = False
            rows.append(
                {
                    "property": f"E|N_t| at t={t:g}",
                    "n": n,
                    "measured": net.num_alive(),
                    "paper_low": expected - 5 * math.sqrt(expected),
                    "paper_high": expected + 5 * math.sqrt(expected),
                    "within": abs(net.num_alive() - expected)
                    <= 5 * math.sqrt(expected),
                }
            )

    return ExperimentResult(
        experiment_id="EXP-08",
        columns=COLUMNS,
        rows=rows,
        verdict={
            "all_within_paper_windows": all(r["within"] for r in rows),
            "size_concentration_rate": concentration,
            "cold_start_curve_matches_mm_infinity": curve_ok,
        },
        elapsed_seconds=watch.elapsed,
    )
