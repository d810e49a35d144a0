"""Declarative scenario layer: one session object per experiment instance.

The paper's experiments are all instances of one template — pick a churn
model, an edge policy, a spreading protocol, measure — and this package
is that template as a first-class API:

* :class:`~repro.scenario.spec.ScenarioSpec` — a frozen, JSON-round-
  trippable value naming churn × policy × protocol × backend × scale ×
  seed × horizon;
* :class:`~repro.scenario.simulation.Simulation` — the session object
  owning the driver, the observer pipeline, and protocol dispatch;
* :mod:`~repro.scenario.observers` — stock composable observers (size,
  degrees, expansion, isolated nodes, coverage) plus the registry for
  custom ones;
* :func:`~repro.scenario.simulation.simulate` — build + run a session in
  one call (the sweep primitive).

Quick start::

    from repro.scenario import ScenarioSpec, simulate

    spec = ScenarioSpec(
        churn="adversarial", policy="regen", n=300, d=8, horizon=300,
        churn_params={"strategy": "max_degree"},
        protocol="gossip", protocol_params={"pull": False},
    )
    sim = simulate(spec, seed=0, observers=["expansion"])
    print(sim.flood().completion_round, sim.results()["expansion"])

JSON scenarios run from the CLI:
``python -m repro.cli --scenario file.json``.
"""

from repro.scenario.observers import (
    CoverageObserver,
    DegreeStatsObserver,
    ExpansionObserver,
    IsolatedNodesObserver,
    Observer,
    SizeObserver,
    make_observer,
    observer_names,
    register_observer,
)
from repro.scenario.registry import CHURN_NAMES, POLICY_NAMES, build_network
from repro.scenario.simulation import Simulation, simulate
from repro.scenario.spec import (
    ScenarioDocument,
    ScenarioSpec,
    load_scenario_document,
)

__all__ = [
    "CHURN_NAMES",
    "POLICY_NAMES",
    "CoverageObserver",
    "DegreeStatsObserver",
    "ExpansionObserver",
    "IsolatedNodesObserver",
    "Observer",
    "ScenarioDocument",
    "ScenarioSpec",
    "Simulation",
    "SizeObserver",
    "build_network",
    "load_scenario_document",
    "make_observer",
    "observer_names",
    "register_observer",
    "simulate",
]
