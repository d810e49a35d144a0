"""Declarative sweep grids: one frozen value object per parameter study.

A :class:`SweepSpec` is the ensemble counterpart of
:class:`~repro.scenario.spec.ScenarioSpec`: where a scenario names *one*
churn × policy × protocol × scale instance, a sweep names a whole grid of
them — a base scenario, an ordered list of :class:`SweepAxis` entries
(each a scenario field, a dotted parameter path like
``"policy_params.c"``, or the special ``"scenario"`` axis whose values
are multi-field override mappings), and a number of seed *replicas* per
grid point.  Like scenarios, sweeps are frozen, validated at
construction, and JSON-round-trippable, so a parameter study can be
declared in Python or shipped as a document.

**Canonical cell order.**  Grid points enumerate the Cartesian product
of the axes in declaration order with the *last axis varying fastest*;
each point expands into ``replicas`` consecutive cells.  Cell ``i`` of a
sweep is therefore a pure function of the spec — every runner, whatever
its parallelism, reports results in this order, which is what makes a
``--jobs 4`` run bit-identical to ``--jobs 1``.

**Seeding.**  Cells are seeded from the sweep's *named stream*
(:func:`repro.util.rng.derive_seed`): cell ``i`` gets child ``i`` of
``stream_root(seed, stream)``.  The base scenario's own ``seed`` field
is ignored (cells would otherwise all collide on it), and a parallel
worker can re-derive any single cell's seed in O(1) without
materializing the grid.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.scenario.spec import ScenarioSpec, _SPEC_FIELDS
from repro.util.rng import derive_seed

#: ScenarioSpec fields holding nested parameter mappings (dotted axes).
_PARAM_FIELDS = ("policy_params", "churn_params", "protocol_params")

#: The special axis name whose values are multi-field override mappings.
SCENARIO_AXIS = "scenario"

#: Spec fields an axis may not target (cells are seeded by the stream).
_RESERVED_FIELDS = ("seed",)


def _check_axis_field(field_name: str) -> None:
    if field_name == SCENARIO_AXIS:
        return
    head, _, leaf = field_name.partition(".")
    if leaf:
        if head not in _PARAM_FIELDS:
            raise ConfigurationError(
                f"dotted sweep axis {field_name!r} must start with one of "
                f"{list(_PARAM_FIELDS)}"
            )
        return
    if field_name in _RESERVED_FIELDS:
        raise ConfigurationError(
            f"sweep axis may not target {field_name!r}: cells are seeded "
            "from the sweep's named stream"
        )
    if field_name not in _SPEC_FIELDS:
        raise ConfigurationError(
            f"unknown sweep axis field {field_name!r}; known scenario "
            f"fields: {list(_SPEC_FIELDS)}, dotted parameter paths "
            f"({'/'.join(_PARAM_FIELDS)}), or {SCENARIO_AXIS!r}"
        )


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: a field name and its ordered values.

    Attributes:
        field: a :class:`ScenarioSpec` field name (``"d"``, ``"n"``,
            ``"policy"``, ...), a dotted path into one of the parameter
            mappings (``"churn_params.lam"``), or ``"scenario"`` —
            whose values are mappings of several field overrides applied
            together (the *zipped* axis, for configurations like
            policy + policy_params that must move in lockstep).
        values: the ordered, non-empty tuple of values the axis takes.
    """

    field: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        _check_axis_field(self.field)
        values = tuple(self.values)
        if not values:
            raise ConfigurationError(
                f"sweep axis {self.field!r} needs at least one value"
            )
        if self.field == SCENARIO_AXIS:
            for value in values:
                if not isinstance(value, Mapping):
                    raise ConfigurationError(
                        f"values of the {SCENARIO_AXIS!r} axis must be "
                        f"mappings of scenario overrides, got {value!r}"
                    )
                for key in value:
                    if key == SCENARIO_AXIS:
                        raise ConfigurationError(
                            "scenario-axis overrides cannot nest "
                            f"{SCENARIO_AXIS!r}"
                        )
                    _check_axis_field(str(key))
            values = tuple(dict(value) for value in values)
        object.__setattr__(self, "values", values)

    def to_dict(self) -> dict[str, Any]:
        return {"field": self.field, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepAxis":
        unknown = sorted(set(data) - {"field", "values"})
        if unknown:
            raise ConfigurationError(
                f"unknown sweep axis field(s) {unknown}; known: "
                "['field', 'values']"
            )
        return cls(field=data["field"], values=tuple(data["values"]))


@dataclass(frozen=True)
class SweepCell:
    """One realized grid cell: a scenario plus its position and seed key.

    ``overrides`` records the raw axis values that produced the cell
    (axis field → value), so runners can label rows without re-deriving
    the grid arithmetic.
    """

    index: int
    point: int
    replica: int
    spec: ScenarioSpec
    overrides: tuple[tuple[str, Any], ...]

    def seed(self, sweep: "SweepSpec") -> np.random.SeedSequence:
        return sweep.cell_seed(self.index)


def _merge_override(
    base: ScenarioSpec, changes: dict[str, Any], field_name: str, value: Any
) -> None:
    """Fold one axis assignment into the accumulating ``with_`` changes."""
    head, _, leaf = field_name.partition(".")
    if leaf:
        params = dict(changes.get(head, getattr(base, head)))
        params[leaf] = value
        changes[head] = params
        return
    if field_name in _PARAM_FIELDS:
        # Whole-mapping override: replace, do not merge — axes that want
        # merging target dotted leaves instead.
        changes[field_name] = dict(value)
        return
    changes[field_name] = value


@dataclass(frozen=True)
class SweepSpec:
    """A frozen grid of scenarios: base × axes × seed replicas.

    Attributes:
        base: the scenario every cell starts from (its ``seed`` field is
            ignored; cells draw seeds from the named stream).
        axes: the swept dimensions, outermost first.
        replicas: independent seed replicas per grid point.
        seed: master seed of the sweep's seed stream.
        stream: the stream name (see :func:`repro.util.rng.derive_seeds`)
            — distinct sweeps within one experiment name distinct
            streams, replacing the old ``seed + k`` offsetting.
        measure: registered measurement name executed per cell (see
            :mod:`repro.sweep.measurements`).
        measure_params: extra keyword parameters for the measurement.
    """

    base: ScenarioSpec
    axes: tuple[SweepAxis, ...] = ()
    replicas: int = 1
    seed: int = 0
    stream: str = "sweep"
    measure: str = "network_summary"
    measure_params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.base, ScenarioSpec):
            raise ConfigurationError(
                f"sweep base must be a ScenarioSpec, got {self.base!r}"
            )
        axes = tuple(
            axis if isinstance(axis, SweepAxis) else SweepAxis(*axis)
            for axis in self.axes
        )
        object.__setattr__(self, "axes", axes)
        if self.replicas < 1:
            raise ConfigurationError(
                f"sweep needs replicas >= 1, got {self.replicas}"
            )
        if not isinstance(self.seed, (int, np.integer)) or isinstance(
            self.seed, bool
        ):
            raise ConfigurationError(
                f"sweep seed must be an integer, got {self.seed!r}"
            )
        if not self.stream or not isinstance(self.stream, str):
            raise ConfigurationError(
                f"sweep stream must be a non-empty string, got {self.stream!r}"
            )
        if not self.measure or not isinstance(self.measure, str):
            raise ConfigurationError(
                f"sweep measure must be a non-empty string, got {self.measure!r}"
            )
        params = self.measure_params
        if params is None:
            params = {}
        elif not isinstance(params, Mapping):
            raise ConfigurationError(
                f"measure_params must be an object/mapping, got {params!r}"
            )
        object.__setattr__(self, "measure_params", dict(params))
        # Materialize every point's spec once: a typo'd override fails at
        # declaration time, not mid-sweep inside a worker.
        for _ in self.points():
            pass

    # ------------------------------------------------------------------
    # grid enumeration
    # ------------------------------------------------------------------

    @property
    def num_points(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    @property
    def num_cells(self) -> int:
        return self.num_points * self.replicas

    def points(self) -> Iterator[tuple[tuple[tuple[str, Any], ...], ScenarioSpec]]:
        """Yield ``(overrides, spec)`` per grid point, in canonical order."""
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            overrides = tuple(
                (axis.field, value) for axis, value in zip(self.axes, combo)
            )
            yield overrides, self.point_spec(overrides)

    def point_spec(
        self, overrides: tuple[tuple[str, Any], ...]
    ) -> ScenarioSpec:
        """The scenario of one grid point (overrides applied in order)."""
        changes: dict[str, Any] = {"seed": None}
        for field_name, value in overrides:
            if field_name == SCENARIO_AXIS:
                for key, sub_value in value.items():
                    _merge_override(self.base, changes, str(key), sub_value)
            else:
                _merge_override(self.base, changes, field_name, value)
        return self.base.with_(**changes)

    def cells(self) -> Iterator[SweepCell]:
        """Every cell of the grid, in canonical order."""
        index = 0
        for point, (overrides, spec) in enumerate(self.points()):
            for replica in range(self.replicas):
                yield SweepCell(
                    index=index,
                    point=point,
                    replica=replica,
                    spec=spec,
                    overrides=overrides,
                )
                index += 1

    def cell(self, index: int) -> SweepCell:
        """Cell *index* (canonical order)."""
        if not 0 <= index < self.num_cells:
            raise ConfigurationError(
                f"cell index {index} out of range [0, {self.num_cells})"
            )
        for cell in self.cells():
            if cell.index == index:
                return cell
        raise AssertionError("unreachable")

    def cell_seed(self, index: int) -> np.random.SeedSequence:
        """The named-stream seed of cell *index* (O(1), worker-safe)."""
        return derive_seed(int(self.seed), self.stream, index)

    def sweep_key(self) -> str:
        """The sweep's content address (sha256 over spec + version) —
        see :func:`repro.sweep.artifact.sweep_key`."""
        from repro.sweep.artifact import sweep_key

        return sweep_key(self)

    # ------------------------------------------------------------------
    # JSON / dict round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
            "replicas": self.replicas,
            "seed": int(self.seed),
            "stream": self.stream,
            "measure": self.measure,
            "measure_params": dict(self.measure_params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = (
            "base",
            "axes",
            "replicas",
            "seed",
            "stream",
            "measure",
            "measure_params",
        )
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigurationError(
                f"unknown sweep field(s) {unknown}; known: {list(known)}"
            )
        if "base" not in data:
            raise ConfigurationError("a sweep document needs a 'base' scenario")
        axes = tuple(
            SweepAxis.from_dict(axis) for axis in data.get("axes", [])
        )
        return cls(
            base=ScenarioSpec.from_dict(data["base"]),
            axes=axes,
            replicas=int(data.get("replicas", 1)),
            seed=int(data.get("seed", 0)),
            stream=str(data.get("stream", "sweep")),
            measure=str(data.get("measure", "network_summary")),
            measure_params=dict(data.get("measure_params", {}) or {}),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("a sweep JSON document must be an object")
        return cls.from_dict(data)
