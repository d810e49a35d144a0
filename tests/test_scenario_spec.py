"""Tests for ScenarioSpec: round trips, validation, error paths."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    ScenarioSpec,
    load_scenario_document,
    make_observer,
    observer_names,
)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            churn="adversarial",
            n=300,
            d=8,
            policy="capped",
            policy_params={"max_in_degree": 16},
            churn_params={"strategy": "max_degree"},
            protocol="gossip",
            protocol_params={"push": True, "pull": False},
            horizon=300,
            seed=7,
            backend="array",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec(
            churn="general",
            n=100,
            d=4,
            policy="regen",
            churn_params={"lifetime": "weibull", "lifetime_params": {"shape": 0.5}},
            protocol="lossy",
            protocol_params={"loss": 0.3},
        )
        text = spec.to_json()
        json.loads(text)  # well-formed JSON
        assert ScenarioSpec.from_json(text) == spec

    def test_to_dict_copies_params(self):
        spec = ScenarioSpec(protocol="lossy", protocol_params={"loss": 0.1})
        data = spec.to_dict()
        data["protocol_params"]["loss"] = 0.9
        assert spec.protocol_params["loss"] == 0.1

    def test_with_replaces(self):
        spec = ScenarioSpec(n=100, d=4)
        bigger = spec.with_(n=200, horizon=50)
        assert bigger.n == 200 and bigger.horizon == 50
        assert spec.n == 100 and spec.horizon == 0
        assert bigger.d == spec.d

    def test_defaults_validate(self):
        spec = ScenarioSpec()
        assert spec.churn == "streaming"
        assert spec.protocol is None

    def test_null_params_mean_empty(self):
        spec = ScenarioSpec.from_dict(
            {"churn": "streaming", "policy": "regen", "churn_params": None,
             "protocol_params": None}
        )
        assert spec.churn_params == {} and spec.protocol_params == {}

    def test_non_mapping_params_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            ScenarioSpec(churn_params=[1, 2])


class TestValidation:
    def test_unknown_churn(self):
        with pytest.raises(ConfigurationError, match="unknown churn model"):
            ScenarioSpec(churn="quantum")

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown edge policy"):
            ScenarioSpec(policy="psychic")

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown flooding protocol"):
            ScenarioSpec(protocol="telepathy")

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ScenarioSpec(backend="gpu")

    def test_dict_backend_points_at_the_oracle(self):
        # Specs written when the dict backend shipped fail loudly, from
        # code and from JSON alike.
        with pytest.raises(ConfigurationError, match="tests/oracles/"):
            ScenarioSpec(backend="dict")
        document = ScenarioSpec(backend="array").to_dict()
        document["backend"] = "dict"
        with pytest.raises(ConfigurationError, match="tests/oracles/"):
            ScenarioSpec.from_dict(document)

    def test_unknown_spec_field(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"churn": "streaming", "colour": "red"})

    def test_capped_needs_max_in_degree(self):
        with pytest.raises(ConfigurationError, match="max_in_degree"):
            ScenarioSpec(policy="capped")

    def test_unknown_policy_param(self):
        with pytest.raises(ConfigurationError, match="unknown policy parameter"):
            ScenarioSpec(policy="regen", policy_params={"bogus": 1})

    def test_unknown_churn_param_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown streaming churn"):
            ScenarioSpec(churn="streaming", churn_params={"warm_tiem": True})

    def test_protocol_managed_model_rejects_edge_policy_at_construction(self):
        with pytest.raises(ConfigurationError, match="policy='none'"):
            ScenarioSpec(churn="bitcoin", policy="regen")

    def test_unknown_lifetime_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown lifetime law"):
            ScenarioSpec(churn="general", churn_params={"lifetime": "uniform"})

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(d=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(horizon=-1)


class TestBoundedPolicySpecs:
    """Spec-level validation and round trips for the bounded policies."""

    def test_raes_round_trip(self):
        spec = ScenarioSpec(
            churn="streaming",
            n=200,
            d=4,
            policy="raes",
            policy_params={"c": 2, "max_attempts": 32},
            protocol="discrete",
            backend="array",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_policy_rejected_on_round_trip(self):
        # The error path must fire at from_dict/from_json time too, not
        # only for hand-built specs: a typo'd JSON sweep fails at load.
        data = ScenarioSpec(policy="regen").to_dict()
        data["policy"] = "raes2"
        with pytest.raises(ConfigurationError, match="unknown edge policy"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigurationError, match="unknown edge policy"):
            ScenarioSpec.from_json(json.dumps(data))

    def test_raes_cap_below_d_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="cap"):
            ScenarioSpec(policy="raes", d=4, policy_params={"c": 0.5})

    def test_raes_cap_below_d_rejected_on_round_trip(self):
        data = ScenarioSpec(
            policy="raes", d=4, policy_params={"c": 2}
        ).to_dict()
        data["policy_params"]["c"] = 0.25
        with pytest.raises(ConfigurationError, match="cap"):
            ScenarioSpec.from_dict(data)
        with pytest.raises(ConfigurationError, match="cap"):
            ScenarioSpec.from_json(json.dumps(data))

    def test_raes_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown policy parameter"):
            ScenarioSpec(policy="raes", policy_params={"cap": 8})

    def test_raes_bad_max_attempts_rejected(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            ScenarioSpec(policy="raes", policy_params={"max_attempts": 0})

    def test_capped_bad_max_attempts_rejected(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            ScenarioSpec(
                policy="capped",
                policy_params={"max_in_degree": 8, "max_attempts": -3},
            )


class TestScenarioDocument:
    def test_flat_spec_document(self):
        doc = load_scenario_document({"churn": "poisson", "n": 50, "policy": "none"})
        assert doc.spec.churn == "poisson"
        assert doc.observers == ()
        assert not doc.should_flood  # no protocol configured

    def test_full_document(self):
        doc = load_scenario_document(
            {
                "scenario": {"churn": "streaming", "n": 50, "protocol": "discrete"},
                "observers": ["size", {"name": "degrees", "params": {"every": 5}}],
            }
        )
        assert doc.spec.protocol == "discrete"
        assert len(doc.observers) == 2
        assert doc.should_flood  # protocol present, flood unset

    def test_flood_override(self):
        doc = load_scenario_document(
            {"scenario": {"churn": "streaming", "protocol": "discrete"},
             "flood": False}
        )
        assert not doc.should_flood

    def test_unknown_document_field(self):
        with pytest.raises(ConfigurationError, match="unknown scenario document"):
            load_scenario_document(
                {"scenario": {"churn": "streaming"}, "observer": []}
            )

    def test_json_text_source(self):
        doc = load_scenario_document('{"churn": "streaming", "n": 64}')
        assert doc.spec.n == 64

    def test_file_source(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(ScenarioSpec(churn="poisson", policy="none").to_json())
        doc = load_scenario_document(path)
        assert doc.spec.churn == "poisson"

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario_document(tmp_path / "no_such_scenario.json")


class TestObserverRegistry:
    def test_stock_names(self):
        assert {"size", "degrees", "expansion", "isolated", "coverage"} <= set(
            observer_names()
        )

    def test_unknown_observer(self):
        with pytest.raises(ConfigurationError, match="unknown observer"):
            make_observer("scribe")

    def test_bad_observer_params(self):
        with pytest.raises(ConfigurationError, match="bad parameters"):
            make_observer("size", cadence=3)
