"""Composing a custom scenario: adversarial churn × gossip × observers.

The scenario layer turns "pick a churn model, an edge policy, a spreading
protocol, and measure" into one declarative object.  This example builds
a configuration the paper never ran — an adversary always deleting the
biggest hub, regeneration repairing the damage, a push-only gossip rumour
racing the churn — and watches expansion and isolated-node counts along
the way with stock observers.

Run:  PYTHONPATH=src python examples/custom_scenario.py

The same scenario, as pure JSON, lives in
``examples/adversarial_gossip.json`` and runs via::

    PYTHONPATH=src python -m repro.cli --scenario examples/adversarial_gossip.json
"""

from __future__ import annotations

from repro.scenario import (
    CoverageObserver,
    ExpansionObserver,
    ScenarioSpec,
    Simulation,
)

SPEC = ScenarioSpec(
    churn="adversarial",                 # streaming cadence, chosen victims
    churn_params={"strategy": "max_degree"},  # always kill the biggest hub
    policy="regen",                      # the paper's repair rule
    n=300,
    d=8,
    horizon=300,                         # churn rounds before the broadcast
    protocol="gossip",
    protocol_params={"push": True, "pull": False, "seed": 11},
)


def main() -> None:
    print("spec:")
    print(SPEC.to_json())

    # Round-trip through JSON — what --scenario does with a file.
    spec = ScenarioSpec.from_json(SPEC.to_json())
    assert spec == SPEC

    simulation = Simulation(
        spec,
        observers=[
            ExpansionObserver(every=100, seed=1),  # probe every 100 rounds
            CoverageObserver(),
        ],
        seed=0,
    )
    simulation.run()

    result = simulation.flood()
    print(
        f"\npush-only gossip under hub-killing churn: "
        f"completed={result.completed} in {result.completion_round} rounds "
        f"(network size {result.final_network_size})"
    )

    expansion = simulation.results()["expansion"]
    print(f"worst expansion probed during churn: {expansion['worst_ratio']:.3f}")
    print(
        "regeneration keeps the network an expander even while the "
        "adversary deletes hubs — the paper's oblivious-churn guarantee "
        "degrades gracefully."
    )

    # Sweeps are spec surgery: the same scenario at double scale, pull
    # enabled, on the vectorized array backend.
    big = spec.with_(
        n=600,
        horizon=600,
        backend="array",
        protocol_params={**spec.protocol_params, "pull": True, "vectorized": True},
    )
    big_result = Simulation(big, seed=1).run().flood()
    print(
        f"n=600 push+pull (vectorized, array backend): "
        f"completed={big_result.completed} in {big_result.completion_round} rounds"
    )


if __name__ == "__main__":
    main()
