"""Declarative scenario specifications.

A :class:`ScenarioSpec` is one frozen, JSON-round-trippable value object
naming everything that defines a paper experiment instance: the churn
model and its parameters, the edge policy, the spreading protocol, the
topology backend, the scale ``(n, d)``, the seed and the observation
horizon.  The experiment runners, the CLI (``python -m repro.cli
--scenario file.json``) and parameter sweeps all build network sessions
from specs through :class:`~repro.scenario.simulation.Simulation`, so a
scenario behaves identically whether it was written in Python or loaded
from a JSON file.

Validation happens at construction: unknown churn models, policies,
protocols, churn/policy parameter keys and churn/policy mismatches raise
:class:`~repro.errors.ConfigurationError` immediately.  (``protocol_params``
are forwarded verbatim to the protocol function, which rejects
unknown keywords when the protocol is actually run.)
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.backend import resolve_backend_name
from repro.errors import ConfigurationError
from repro.flooding.protocols import get_protocol
from repro.scenario.registry import (
    CHURN_MODELS,
    CHURN_NAMES,
    make_policy,
    validate_churn_params,
)

_SPEC_FIELDS = (
    "churn",
    "n",
    "d",
    "policy",
    "policy_params",
    "churn_params",
    "protocol",
    "protocol_params",
    "horizon",
    "seed",
    "backend",
    "checkpoint_every",
    "checkpoint_dir",
    "fast_rounds",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative churn × policy × protocol × scale configuration.

    Attributes:
        churn: churn model name (see
            :data:`repro.scenario.registry.CHURN_NAMES`).
        n: the scale parameter — network size for the streaming-cadence
            models, expected stationary size for the Poisson ones.
        d: out-degree (requests per node; ``target_outbound`` for the
            Bitcoin-like overlay).
        policy: edge policy name — ``"none"`` (no regeneration),
            ``"regen"``, ``"capped"`` (bounded in-degree, needs
            ``policy_params["max_in_degree"]``), or ``"raes"`` (RAES-style
            bounded-degree expander maintenance: out-degree exactly ``d``,
            in-degree capped at ``c·d``; optional ``policy_params["c"]``,
            default 2).
        policy_params: extra edge-policy parameters.
        churn_params: extra churn-model parameters (e.g. ``warm_time``,
            ``strategy``, ``lifetime``, ``fast_warm``).
        protocol: spreading protocol name (see
            :func:`repro.flooding.protocol_names`), or None when the
            scenario only observes topology.
        protocol_params: parameters forwarded to the protocol's run
            (e.g. ``max_rounds``, ``loss``, ``vectorized``).
        horizon: unit-time rounds the session advances between warm-up
            and measurement (:meth:`Simulation.run`'s default).
        seed: default RNG seed (overridable per run for sweeps).
        backend: ``"array"`` or None (the same backend); any other
            name is rejected.  Kept so stored specs stay loadable.
        checkpoint_every: service-plane checkpoint cadence in completed
            rounds; ``0`` (the default) disables cadence checkpoints.
        checkpoint_dir: directory for cadence checkpoints (required when
            ``checkpoint_every`` > 0, unless supplied at session
            construction or through the ambient service options).
        fast_rounds: the one request for batched stepping — the gaps
            between observer reads and checkpoints (the whole run when
            there is no cadence) advance through the driver's batched
            window path when it has one (``supports_batched_advance``),
            falling back to per-event rounds otherwise.  The SDG/SDGR
            fused kernel is the per-event trajectory (it changes only
            speed and how finely reports are split); the threshold
            fuse keeps the churn law on a different seeded trajectory
            (like ``fast_warm``); the Poisson/general windows apply all
            of a window's births before its deaths, an approximation
            that shrinks with the window.
    """

    churn: str = "streaming"
    n: float = 100.0
    d: int = 4
    policy: str = "regen"
    policy_params: dict[str, Any] = field(default_factory=dict)
    churn_params: dict[str, Any] = field(default_factory=dict)
    protocol: str | None = None
    protocol_params: dict[str, Any] = field(default_factory=dict)
    horizon: float = 0.0
    seed: int | None = None
    backend: str | None = None
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    fast_rounds: bool = False

    def __post_init__(self) -> None:
        # JSON documents use null for "absent" (like backend), so None
        # params mean "no parameters"; anything else must be a mapping.
        for field_name in ("policy_params", "churn_params", "protocol_params"):
            value = getattr(self, field_name)
            if value is None:
                value = {}
            elif not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"{field_name} must be an object/mapping, got {value!r}"
                )
            object.__setattr__(self, field_name, dict(value))
        if self.churn not in CHURN_MODELS:
            raise ConfigurationError(
                f"unknown churn model {self.churn!r}; known: {list(CHURN_NAMES)}"
            )
        if self.n < 2:
            raise ConfigurationError(f"scenario needs n >= 2, got {self.n}")
        if not isinstance(self.d, int):
            # JSON parses 4.0 as float; coerce when integral, reject else.
            if float(self.d).is_integer():
                object.__setattr__(self, "d", int(self.d))
            else:
                raise ConfigurationError(
                    f"out-degree d must be an integer, got {self.d}"
                )
        if self.d < 1:
            raise ConfigurationError(f"scenario needs d >= 1, got {self.d}")
        if self.horizon < 0:
            raise ConfigurationError(
                f"horizon must be non-negative, got {self.horizon}"
            )
        if self.backend is not None:
            resolve_backend_name(self.backend)
        if not isinstance(self.checkpoint_every, int):
            if float(self.checkpoint_every).is_integer():
                object.__setattr__(
                    self, "checkpoint_every", int(self.checkpoint_every)
                )
            else:
                raise ConfigurationError(
                    "checkpoint_every must be an integer round count, got "
                    f"{self.checkpoint_every}"
                )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_dir is not None:
            object.__setattr__(self, "checkpoint_dir", str(self.checkpoint_dir))
        object.__setattr__(self, "fast_rounds", bool(self.fast_rounds))
        make_policy(self)  # validates the policy name and its parameters
        validate_churn_params(self)  # churn param keys + policy/model fit
        if self.protocol is not None:
            get_protocol(self.protocol)  # validates the protocol name

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with *changes* applied (the sweep primitive)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON / dict round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-ready; nested params are copied)."""
        return {
            "churn": self.churn,
            "n": self.n,
            "d": self.d,
            "policy": self.policy,
            "policy_params": dict(self.policy_params),
            "churn_params": dict(self.churn_params),
            "protocol": self.protocol,
            "protocol_params": dict(self.protocol_params),
            "horizon": self.horizon,
            "seed": self.seed,
            "backend": self.backend,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_dir": self.checkpoint_dir,
            "fast_rounds": self.fast_rounds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys fail)."""
        unknown = sorted(set(data) - set(_SPEC_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown scenario field(s) {unknown}; known: {list(_SPEC_FIELDS)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("a scenario JSON document must be an object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class ScenarioDocument:
    """A scenario file: one spec plus observer declarations.

    The JSON shape accepted by :func:`load_scenario_document` (and hence
    by ``python -m repro.cli --scenario file.json``) is either a
    flat :class:`ScenarioSpec` object, or::

        {
          "scenario":  { ...ScenarioSpec fields... },
          "observers": ["size", {"name": "degrees", "params": {"every": 50}}],
          "flood":     true
        }

    ``flood`` defaults to "run the protocol iff the spec names one".
    """

    spec: ScenarioSpec
    observers: tuple[Any, ...] = ()
    flood: bool | None = None

    @property
    def should_flood(self) -> bool:
        if self.flood is None:
            return self.spec.protocol is not None
        return self.flood


def load_scenario_document(source: str | Path | Mapping[str, Any]) -> ScenarioDocument:
    """Parse a scenario document from a path, JSON text, or mapping.

    A string is inline JSON when it starts with ``{`` (after whitespace);
    anything else is treated as a path, so a typo'd ``--scenario`` file
    raises FileNotFoundError instead of a JSON parse error.
    """
    if isinstance(source, Mapping):
        data: Any = dict(source)
    else:
        looks_like_json = isinstance(source, str) and source.lstrip().startswith("{")
        text = str(source) if looks_like_json else Path(source).read_text()
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ConfigurationError("a scenario document must be a JSON object")
    if "scenario" not in data:
        return ScenarioDocument(spec=ScenarioSpec.from_dict(data))
    unknown = sorted(set(data) - {"scenario", "observers", "flood"})
    if unknown:
        raise ConfigurationError(
            f"unknown scenario document field(s) {unknown}; "
            "known: ['scenario', 'observers', 'flood']"
        )
    observers = data.get("observers", [])
    if not isinstance(observers, list):
        raise ConfigurationError("'observers' must be a list")
    return ScenarioDocument(
        spec=ScenarioSpec.from_dict(data["scenario"]),
        observers=tuple(observers),
        flood=data.get("flood"),
    )
