"""repro — dynamic random networks with node churn.

A production-quality reproduction of Becchetti, Clementi, Pasquale,
Trevisan, Ziccardi: *"Expansion and Flooding in Dynamic Random Networks
with Node Churn"* (ICDCS 2021, arXiv:2007.14681).

Quick start::

    from repro import SDGR, flood_discrete

    net = SDGR(n=1000, d=8, seed=0)   # streaming churn + edge regeneration
    net.run_rounds(1000)              # reach stationarity
    result = flood_discrete(net)      # Definition 3.3 flooding
    print(result.completed, result.completion_round)

The four models of the paper:

* :func:`SDG` / :func:`SDGR` — streaming churn (one birth per round,
  lifetime exactly n) without / with edge regeneration;
* :func:`PDG` / :func:`PDGR` — Poisson churn (births at rate λ, Exp(µ)
  lifetimes) without / with edge regeneration.

Scenarios — churn × policy × protocol × observers as one declarative
object (JSON-round-trippable, runnable from the CLI via
``python -m repro.cli --scenario file.json``)::

    from repro import ScenarioSpec, simulate

    spec = ScenarioSpec(churn="streaming", policy="regen", n=1000, d=8,
                        horizon=1000, protocol="discrete")
    result = simulate(spec, seed=0).flood()

Sub-packages: ``core`` (graph state), ``churn``, ``models``, ``flooding``,
``analysis``, ``theory`` (the paper's bounds), ``onion`` (the proofs'
constructive processes), ``baselines`` (related-work protocols), ``p2p``
(a Bitcoin-like overlay), ``scenario`` (declarative sessions),
``sweep`` (declarative parameter grids: process-pool execution with a
content-addressed result cache), ``api`` (programmatic sweep lifecycle:
submit / worker / status / collect over a shared store), ``cli`` (the
terminal interface, including the ``sweep`` subcommands),
``experiments`` (table/figure reproduction).
"""

from repro.analysis import (
    adversarial_expansion_upper_bound,
    count_isolated,
    isolated_fraction,
    vertex_expansion_exact,
)
from repro.core import Snapshot
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ExperimentError,
    ReproError,
    SimulationError,
    SweepError,
)
from repro.flooding import (
    FloodingResult,
    flood_asynchronous,
    flood_discrete,
    flood_discretized,
    gossip_push_pull,
)
from repro.models import (
    PDG,
    PDGR,
    SDG,
    SDGR,
    TSDG,
    PoissonNetwork,
    StreamingNetwork,
    ThresholdStreamingNetwork,
    erdos_renyi_snapshot,
    random_regular_snapshot,
    static_d_out_snapshot,
)
from repro.scenario import ScenarioSpec, Simulation, simulate

__version__ = "1.9.0"

__all__ = [
    "PDG",
    "PDGR",
    "SDG",
    "SDGR",
    "TSDG",
    "AnalysisError",
    "ConfigurationError",
    "ExperimentError",
    "FloodingResult",
    "PoissonNetwork",
    "ReproError",
    "ScenarioSpec",
    "Simulation",
    "SimulationError",
    "Snapshot",
    "StreamingNetwork",
    "SweepError",
    "ThresholdStreamingNetwork",
    "__version__",
    "simulate",
    "adversarial_expansion_upper_bound",
    "count_isolated",
    "erdos_renyi_snapshot",
    "flood_asynchronous",
    "flood_discrete",
    "flood_discretized",
    "gossip_push_pull",
    "isolated_fraction",
    "random_regular_snapshot",
    "static_d_out_snapshot",
    "vertex_expansion_exact",
]
