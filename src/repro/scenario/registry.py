"""Registries gluing :class:`~repro.scenario.spec.ScenarioSpec` names to code.

Three small registries make a scenario declarative:

* **edge policies** (``none`` / ``regen`` / ``capped`` / ``raes``) →
  :mod:`repro.core.edge_policy` instances;
* **lifetime laws** (``exponential`` / ``weibull`` / ``pareto`` /
  ``fixed``) → :mod:`repro.churn.lifetime` distributions for the
  generalized driver;
* **churn models** (``streaming``, ``threshold`` — the degree-threshold
  streaming dynamic of Angileri et al. 2025 —, ``poisson``, ``general``,
  ``adversarial``, plus the protocol-managed ``central_cache``,
  ``tokens`` and ``bitcoin`` baselines) → driver builders.

Every builder takes the spec plus a resolved seed and returns a ready
:class:`~repro.models.base.DynamicNetwork`, constructed with exactly the
same arguments the experiment runners used to hand-wire — a scenario-built
network is bit-identical to a directly-built one on the same seed.
Unknown parameter keys raise :class:`~repro.errors.ConfigurationError`
immediately, so a typo in a JSON sweep fails loudly instead of silently
running the default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from repro.baselines import CentralCacheNetwork, TokenNetwork
from repro.churn.lifetime import (
    ExponentialLifetime,
    FixedLifetime,
    LifetimeDistribution,
    ParetoLifetime,
    WeibullLifetime,
)
from repro.core.edge_policy import (
    CappedRegenerationPolicy,
    EdgePolicy,
    NoRegenerationPolicy,
    RAESPolicy,
    RegenerationPolicy,
)
from repro.churn.trace import ChurnTrace
from repro.errors import ConfigurationError
from repro.models.adversarial import AdversarialStreamingNetwork
from repro.models.base import DynamicNetwork
from repro.models.general import GeneralChurnNetwork
from repro.models.poisson import PoissonNetwork
from repro.models.streaming import StreamingNetwork
from repro.models.threshold import ThresholdStreamingNetwork, default_threshold
from repro.models.trace import TraceNetwork
from repro.p2p import BitcoinLikeNetwork
from repro.util.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.spec import ScenarioSpec

POLICY_NAMES = ("none", "regen", "capped", "raes")

LIFETIME_NAMES = ("exponential", "weibull", "pareto", "fixed")

#: Churn models whose edge dynamics are baked into the driver (the spec's
#: edge policy must be ``"none"`` for these).
PROTOCOL_MANAGED_CHURN = ("central_cache", "tokens", "bitcoin")


def _check_keys(
    params: Mapping[str, object], allowed: tuple[str, ...], context: str
) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {context} parameter(s) {unknown}; allowed: {sorted(allowed)}"
        )


def make_policy(spec: "ScenarioSpec") -> EdgePolicy:
    """Instantiate the spec's edge policy."""
    params = spec.policy_params
    if spec.policy == "none":
        _check_keys(params, (), "policy")
        return NoRegenerationPolicy(spec.d)
    if spec.policy == "regen":
        _check_keys(params, (), "policy")
        return RegenerationPolicy(spec.d)
    if spec.policy == "capped":
        _check_keys(params, ("max_in_degree", "max_attempts"), "policy")
        if "max_in_degree" not in params:
            raise ConfigurationError(
                "the capped policy needs policy_params['max_in_degree']"
            )
        return CappedRegenerationPolicy(
            spec.d,
            max_in_degree=int(params["max_in_degree"]),
            max_attempts=int(params.get("max_attempts", 16)),
        )
    if spec.policy == "raes":
        _check_keys(params, ("c", "max_attempts"), "policy")
        return RAESPolicy(
            spec.d,
            c=float(params.get("c", 2.0)),
            max_attempts=int(params.get("max_attempts", 64)),
        )
    raise ConfigurationError(
        f"unknown edge policy {spec.policy!r}; known: {list(POLICY_NAMES)}"
    )


def make_lifetime(
    name: str, mean: float, params: Mapping[str, object]
) -> LifetimeDistribution:
    """Instantiate a lifetime law by registry name."""
    if name == "exponential":
        _check_keys(params, (), "lifetime")
        return ExponentialLifetime(mean)
    if name == "weibull":
        _check_keys(params, ("shape",), "lifetime")
        return WeibullLifetime(mean, shape=float(params.get("shape", 0.5)))
    if name == "pareto":
        _check_keys(params, ("alpha",), "lifetime")
        return ParetoLifetime(mean, alpha=float(params.get("alpha", 1.5)))
    if name == "fixed":
        _check_keys(params, (), "lifetime")
        return FixedLifetime(mean)
    raise ConfigurationError(
        f"unknown lifetime law {name!r}; known: {list(LIFETIME_NAMES)}"
    )


# ----------------------------------------------------------------------
# churn model builders
# ----------------------------------------------------------------------

ChurnBuilder = Callable[["ScenarioSpec", SeedLike], DynamicNetwork]

#: Allowed ``churn_params`` keys per churn model (checked both at spec
#: construction and by the builders).
CHURN_PARAM_KEYS: dict[str, tuple[str, ...]] = {
    "streaming": ("warm", "fast_warm"),
    "threshold": ("threshold", "warm", "fast_warm"),
    "poisson": ("lam", "warm_time", "fast_warm"),
    "general": ("lam", "warm_time", "fast_warm", "lifetime", "lifetime_mean",
                "lifetime_params"),
    "adversarial": ("strategy", "warm"),
    "trace": ("path", "events"),
    "central_cache": ("cache_size", "rotation"),
    "tokens": ("tokens_per_node", "mixing_steps"),
    "bitcoin": ("max_inbound", "dns_seed_size", "addr_capacity",
                "gossip_fanout", "dial_attempts", "warm_time"),
}


def validate_churn_params(spec: "ScenarioSpec") -> None:
    """Reject unknown churn-parameter keys and policy/model mismatches.

    Called from ``ScenarioSpec.__post_init__`` so a typo'd key in a JSON
    sweep fails at load time, not mid-sweep inside a builder.
    """
    allowed = CHURN_PARAM_KEYS.get(spec.churn)
    if allowed is not None:
        _check_keys(spec.churn_params, allowed, f"{spec.churn} churn")
    if spec.churn in PROTOCOL_MANAGED_CHURN:
        _require_protocol_managed(spec)
    if spec.churn == "threshold":
        threshold = spec.churn_params.get("threshold")
        if threshold is not None and int(threshold) < 1:
            raise ConfigurationError(
                f"degree threshold must be >= 1, got {threshold}"
            )
    if spec.churn == "general":
        make_lifetime(
            str(spec.churn_params.get("lifetime", "exponential")),
            float(spec.churn_params.get("lifetime_mean", spec.n)),
            spec.churn_params.get("lifetime_params", {}),
        )
    if spec.churn == "trace":
        has_path = spec.churn_params.get("path") is not None
        has_events = spec.churn_params.get("events") is not None
        if has_path == has_events:
            raise ConfigurationError(
                "trace churn needs exactly one of churn_params['path'] "
                "(a JSONL trace file) or churn_params['events'] (inline "
                "{'t','op','id'} records)"
            )
        if has_events:
            # Inline events validate eagerly (cheap); a path is only read
            # at build time so specs stay serializable and portable.
            ChurnTrace.from_dicts(spec.churn_params["events"])


def _build_streaming(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["streaming"], "streaming churn")
    return StreamingNetwork(
        int(spec.n),
        make_policy(spec),
        seed=seed,
        warm=bool(params.get("warm", True)),
        backend=spec.backend,
        fast_warm=bool(params.get("fast_warm", False)),
    )


def _build_threshold(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["threshold"], "threshold churn")
    threshold = params.get("threshold")
    return ThresholdStreamingNetwork(
        int(spec.n),
        make_policy(spec),
        threshold=(
            default_threshold(spec.d) if threshold is None else int(threshold)
        ),
        seed=seed,
        warm=bool(params.get("warm", True)),
        backend=spec.backend,
        fast_warm=bool(params.get("fast_warm", False)),
    )


def _build_poisson(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["poisson"], "poisson churn")
    warm_time = params.get("warm_time")
    return PoissonNetwork(
        spec.n,
        make_policy(spec),
        lam=float(params.get("lam", 1.0)),
        seed=seed,
        warm_time=None if warm_time is None else float(warm_time),
        backend=spec.backend,
        fast_warm=bool(params.get("fast_warm", False)),
    )


def _build_general(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["general"], "general churn")
    lifetime = make_lifetime(
        str(params.get("lifetime", "exponential")),
        float(params.get("lifetime_mean", spec.n)),
        params.get("lifetime_params", {}),
    )
    warm_time = params.get("warm_time")
    return GeneralChurnNetwork(
        lifetime,
        make_policy(spec),
        lam=float(params.get("lam", 1.0)),
        seed=seed,
        warm_time=None if warm_time is None else float(warm_time),
        backend=spec.backend,
        fast_warm=bool(params.get("fast_warm", False)),
    )


def _build_adversarial(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["adversarial"], "adversarial churn")
    return AdversarialStreamingNetwork(
        int(spec.n),
        make_policy(spec),
        strategy=str(params.get("strategy", "max_degree")),
        seed=seed,
        warm=bool(params.get("warm", True)),
        backend=spec.backend,
    )


def _build_trace(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["trace"], "trace churn")
    if params.get("path") is not None:
        trace = ChurnTrace.load(str(params["path"]))
    else:
        trace = ChurnTrace.from_dicts(params["events"])
    return TraceNetwork(
        trace,
        make_policy(spec),
        seed=seed,
        backend=spec.backend,
    )


def _require_protocol_managed(spec: "ScenarioSpec") -> None:
    if spec.policy != "none":
        raise ConfigurationError(
            f"churn model {spec.churn!r} manages its own edge dynamics; "
            "set policy='none'"
        )


def _build_central_cache(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    _require_protocol_managed(spec)
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["central_cache"], "central_cache churn")
    cache_size = params.get("cache_size")
    return CentralCacheNetwork(
        int(spec.n),
        spec.d,
        cache_size=None if cache_size is None else int(cache_size),
        rotation=int(params.get("rotation", 2)),
        seed=seed,
        backend=spec.backend,
    )


def _build_tokens(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    _require_protocol_managed(spec)
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["tokens"], "tokens churn")
    tokens_per_node = params.get("tokens_per_node")
    return TokenNetwork(
        int(spec.n),
        spec.d,
        tokens_per_node=None if tokens_per_node is None else int(tokens_per_node),
        mixing_steps=int(params.get("mixing_steps", 10)),
        seed=seed,
        backend=spec.backend,
    )


def _build_bitcoin(spec: "ScenarioSpec", seed: SeedLike) -> DynamicNetwork:
    _require_protocol_managed(spec)
    params = spec.churn_params
    _check_keys(params, CHURN_PARAM_KEYS["bitcoin"], "bitcoin churn")
    warm_time = params.get("warm_time")
    return BitcoinLikeNetwork(
        spec.n,
        target_outbound=spec.d,
        max_inbound=int(params.get("max_inbound", 125)),
        dns_seed_size=int(params.get("dns_seed_size", 16)),
        addr_capacity=int(params.get("addr_capacity", 256)),
        gossip_fanout=int(params.get("gossip_fanout", 8)),
        dial_attempts=int(params.get("dial_attempts", 4)),
        seed=seed,
        warm_time=None if warm_time is None else float(warm_time),
        backend=spec.backend,
    )


CHURN_MODELS: dict[str, ChurnBuilder] = {
    "streaming": _build_streaming,
    "threshold": _build_threshold,
    "poisson": _build_poisson,
    "general": _build_general,
    "adversarial": _build_adversarial,
    "trace": _build_trace,
    "central_cache": _build_central_cache,
    "tokens": _build_tokens,
    "bitcoin": _build_bitcoin,
}

CHURN_NAMES = tuple(sorted(CHURN_MODELS))


def build_network(spec: "ScenarioSpec", seed: SeedLike = None) -> DynamicNetwork:
    """Build (and warm, per the spec's churn parameters) the spec's driver.

    Args:
        spec: the scenario to realize.
        seed: overrides ``spec.seed`` — this is how sweeps run one
            JSON-defined scenario across many trial seeds.
    """
    try:
        builder = CHURN_MODELS[spec.churn]
    except KeyError:
        raise ConfigurationError(
            f"unknown churn model {spec.churn!r}; known: {list(CHURN_NAMES)}"
        ) from None
    return builder(spec, spec.seed if seed is None else seed)
