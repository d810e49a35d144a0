"""Sweep-level artifacts: one durable record per completed grid.

Cell results live in the content-addressed :class:`~repro.sweep.store.
ResultStore`; this module adds the *sweep-level* unit above them:

* :func:`sweep_key` — the sha256 content address of a whole sweep
  (spec + library version + resolved topology backend), mirroring
  :func:`~repro.sweep.store.cell_key` one level up;
* :class:`SweepResult` — the aggregated artifact a reducer writes to
  ``<store>/sweeps/<key>.json`` once every cell has a result: the
  canonical-order values, the per-cell store keys, and (as provenance)
  per-cell elapsed times and claiming hosts.

**Determinism contract.**  The artifact splits into a *canonical core*
(format, version, key, backend, spec, cell keys, values — everything a
downstream consumer computes on) and *provenance* (wall-clock timings,
host names, the reducing host).  :meth:`SweepResult.core_bytes` is the
canonical serialization of the core, and :attr:`SweepResult.digest` its
sha256: a ``--jobs 1`` run, a 4-worker pool, two worker processes on a
shared store, and a warm re-run all reduce to **byte-identical core
bytes** (and therefore equal digests).  Provenance can never be
bit-stable — wall clocks and host names differ by construction — so it
is carried alongside the core and excluded from the digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro import __version__ as _REPRO_VERSION
from repro.core.backend import default_backend_name
from repro.errors import SweepError
from repro.sweep.store import atomic_write_text, canonical_json

#: Bump when the artifact schema changes (old artifacts read as stale).
ARTIFACT_FORMAT = 1


def sweeps_dir(root: str | Path) -> Path:
    """The sweep-artifact directory of a store rooted at *root*."""
    return Path(root) / "sweeps"


def artifact_path(root: str | Path, key: str) -> Path:
    """Where the reduced artifact of sweep *key* lives under *root*."""
    return sweeps_dir(root) / f"{key}.json"


def submitted_spec_path(root: str | Path, key: str) -> Path:
    """Where a submitted sweep's spec document lives under *root*."""
    return sweeps_dir(root) / f"{key}.spec.json"


def resolve_backend(sweep: Any, backend: str | None = None) -> str:
    """The topology backend a sweep's cells will realize.

    Explicit *backend* wins, then the spec's own ``base.backend``, then
    the process default — the same resolution order the runner applies,
    so submitters and workers agree on every cell key.
    """
    return backend or sweep.base.backend or default_backend_name()


def sweep_key(sweep: Any, backend: str | None = None) -> str:
    """The content address of one sweep: sha256 over spec + version.

    Like :func:`~repro.sweep.store.cell_key`, the resolved backend is
    part of the identity (trajectories are backend-specific), and the
    library version fences artifacts across releases.
    """
    identity = {
        "format": ARTIFACT_FORMAT,
        "version": _REPRO_VERSION,
        "sweep": sweep.to_dict(),
        "backend": resolve_backend(sweep, backend),
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepResult:
    """The reduced artifact of one completed sweep.

    Attributes:
        key: the sweep's content address (:func:`sweep_key`).
        sweep: the sweep spec as a plain dict (``SweepSpec.to_dict()``).
        backend: the resolved topology backend every cell ran on.
        cell_keys: per-cell store keys, in canonical grid order.
        values: per-cell measurement values, in canonical grid order.
        elapsed: per-cell execution seconds (provenance).
        hosts: per-cell claiming/executing host ids (provenance).
        reduced_by: host id of the reducer that wrote the artifact
            (provenance).
    """

    key: str
    sweep: dict[str, Any]
    backend: str
    cell_keys: tuple[str, ...]
    values: tuple[Any, ...]
    elapsed: tuple[float, ...] = ()
    hosts: tuple[str | None, ...] = ()
    reduced_by: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell_keys", tuple(self.cell_keys))
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "elapsed", tuple(self.elapsed))
        object.__setattr__(self, "hosts", tuple(self.hosts))
        if len(self.cell_keys) != len(self.values):
            raise SweepError(
                f"artifact has {len(self.cell_keys)} cell keys but "
                f"{len(self.values)} values"
            )

    # ------------------------------------------------------------------
    # the deterministic core
    # ------------------------------------------------------------------

    def core_dict(self) -> dict[str, Any]:
        """The deterministic portion (everything but provenance)."""
        return {
            "format": ARTIFACT_FORMAT,
            "version": _REPRO_VERSION,
            "key": self.key,
            "backend": self.backend,
            "sweep": dict(self.sweep),
            "cell_keys": list(self.cell_keys),
            "values": list(self.values),
        }

    def core_bytes(self) -> bytes:
        """Canonical serialization of the core — the byte-identity unit."""
        return (canonical_json(self.core_dict()) + "\n").encode("utf-8")

    @property
    def digest(self) -> str:
        """sha256 of :meth:`core_bytes` (embedded in the artifact file)."""
        return hashlib.sha256(self.core_bytes()).hexdigest()

    def value_groups(self) -> list[list[Any]]:
        """Values grouped per grid point: ``groups[point][replica]``."""
        replicas = int(self.sweep.get("replicas", 1))
        values = list(self.values)
        return [
            values[start : start + replicas]
            for start in range(0, len(values), replicas)
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            **self.core_dict(),
            "digest": self.digest,
            "provenance": {
                "elapsed": list(self.elapsed),
                "hosts": list(self.hosts),
                "reduced_by": self.reduced_by,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        if data.get("format") != ARTIFACT_FORMAT:
            raise SweepError(
                f"unsupported sweep artifact format {data.get('format')!r} "
                f"(this version reads format {ARTIFACT_FORMAT})"
            )
        provenance = data.get("provenance") or {}
        result = cls(
            key=str(data["key"]),
            sweep=dict(data["sweep"]),
            backend=str(data["backend"]),
            cell_keys=tuple(data["cell_keys"]),
            values=tuple(data["values"]),
            elapsed=tuple(provenance.get("elapsed", ())),
            hosts=tuple(provenance.get("hosts", ())),
            reduced_by=provenance.get("reduced_by"),
        )
        recorded = data.get("digest")
        if recorded is not None and recorded != result.digest:
            raise SweepError(
                "sweep artifact digest mismatch: recorded "
                f"{recorded!r}, recomputed {result.digest!r} — the file "
                "was tampered with or truncated"
            )
        return result

    def write(self, root: str | Path) -> Path:
        """Atomically (and durably) write the artifact under *root*."""
        path = artifact_path(root, self.key)
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, root: str | Path, key: str) -> "SweepResult | None":
        """Read the artifact of sweep *key*, or None when absent/stale.

        A version or backend drift (the recorded key no longer matches
        *key*'s identity) surfaces as None — like a store miss, the
        caller simply re-reduces.
        """
        path = artifact_path(root, key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            result = cls.from_dict(data)
        except (SweepError, KeyError, TypeError):
            return None
        if result.key != key or data.get("version") != _REPRO_VERSION:
            return None
        return result
