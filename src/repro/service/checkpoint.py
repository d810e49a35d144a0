"""Versioned, content-hashed checkpoints of running simulations.

A checkpoint is a single JSON file, written compactly with its keys
sorted:

    {"format":"repro-checkpoint","payload":{...},
     "sha256":"<hash of the canonical payload text>","version":1}

The payload is encoded once and turned into its canonical text once;
the file embeds exactly the text the hash covers, so loading hashes that
slice of the file as it stands.  Any JSON layout of the same envelope
loads (older files used spaced separators): when the slice does not
match, the parsed payload's canonical text is hashed instead.

The payload serializes everything that determines the rest of a seeded
trajectory: the :class:`~repro.scenario.spec.ScenarioSpec`, the backend
state (:meth:`~repro.core.backend.GraphBackend.dump_state` — including
RNG-visible iteration orders), the driver's bookkeeping (round counters,
jump-chain position, the pending-death event queue, lifetime timers), the
NumPy bit-generator state, and each observer's accumulated measurements
plus its partially filled observation window.  NumPy arrays are embedded
as base64 blobs with dtype/shape, so the file is plain JSON end to end.

The restore contract (enforced by ``tests/test_service_checkpoint.py``
as a hypothesis property over random checkpoint times): a run restored
at time T and advanced to the horizon is **bit-identical** — events,
observer reports, flood results, final RNG state — to the same seeded
run left uninterrupted.

The content hash is verified on load; a flipped byte or truncated file
raises :class:`~repro.errors.CheckpointError` instead of silently
resuming from garbage.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.backend import resolve_backend_name
from repro.errors import CheckpointError
from repro.models.adversarial import AdversarialStreamingNetwork
from repro.models.base import DynamicNetwork, RoundReport
from repro.models.general import GeneralChurnNetwork
from repro.models.poisson import PoissonNetwork
from repro.models.streaming import StreamingNetwork
from repro.models.threshold import ThresholdStreamingNetwork
from repro.models.trace import TraceNetwork
from repro.scenario.registry import build_network
from repro.scenario.spec import ScenarioSpec
from repro.sim.events import (
    EdgeCreated,
    EdgeDestroyed,
    EventRecord,
    NodeBorn,
    NodeDied,
    NodesBorn,
    NodesDied,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.observers import Observer
    from repro.scenario.simulation import Simulation

FORMAT = "repro-checkpoint"
VERSION = 1

#: Filename prefix of directory-managed checkpoints.
FILE_PREFIX = "ckpt-"


# ----------------------------------------------------------------------
# JSON codec (NumPy arrays as base64 blobs, canonical hashing)
# ----------------------------------------------------------------------


#: Leaf types JSON writes as they are (``bool`` is an ``int``).
_JSON_SCALARS = (str, int, float, type(None))

#: Exact types :func:`encode_value` passes through a list in one check.
_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def encode_value(value: Any) -> Any:
    """Recursively convert *value* into plain JSON-able structures.

    A list or tuple whose items are all plain scalars is copied in one
    step, without a call per item.  Anything that is neither a container,
    a NumPy value nor a JSON scalar raises :class:`CheckpointError`.
    """
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": True,
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(
                "ascii"
            ),
        }
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _PLAIN_SCALARS:
            return list(value)
        return [encode_value(item) for item in value]
    if isinstance(value, _JSON_SCALARS):
        return value
    raise CheckpointError(
        f"checkpoint payload is not JSON-serializable: a "
        f"{type(value).__name__} value"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (applied after ``json.loads``).

    A list whose items are all plain scalars is returned as it is.
    """
    if isinstance(value, dict):
        if value.get("__ndarray__"):
            raw = base64.b64decode(value["data"])
            return np.frombuffer(raw, dtype=np.dtype(value["dtype"])).reshape(
                value["shape"]
            )
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        if set(map(type, value)) <= _PLAIN_SCALARS:
            return value
        return [decode_value(item) for item in value]
    return value


def _canonical_text(encoded_payload: Any) -> str:
    """The payload's canonical JSON text: the bytes its hash covers."""
    try:
        return json.dumps(
            encoded_payload, sort_keys=True, separators=(",", ":")
        )
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint payload is not JSON-serializable: {error}"
        ) from error


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# event / report codec (observer windows in flight)
# ----------------------------------------------------------------------

_KIND_CODEC = {
    "born": NodeBorn,
    "died": NodeDied,
    "batch_born": NodesBorn,
    "batch_died": NodesDied,
}
_KIND_NAMES = {cls: name for name, cls in _KIND_CODEC.items()}


def encode_event(event: EventRecord) -> dict:
    """Serialize one :class:`EventRecord` to a JSON-able dict."""
    kind_name = _KIND_NAMES[type(event.kind)]
    if isinstance(event.kind, (NodesBorn, NodesDied)):
        ids: Any = [int(u) for u in event.kind.node_ids]
    else:
        ids = int(event.kind.node_id)
    return {
        "t": event.time,
        "kind": kind_name,
        "ids": ids,
        "created": [[e.source, e.target] for e in event.edges_created],
        "destroyed": [[e.source, e.target] for e in event.edges_destroyed],
    }


def decode_event(data: dict) -> EventRecord:
    """Inverse of :func:`encode_event`."""
    kind_cls = _KIND_CODEC[data["kind"]]
    if kind_cls in (NodesBorn, NodesDied):
        kind = kind_cls(node_ids=tuple(int(u) for u in data["ids"]))
    else:
        kind = kind_cls(node_id=int(data["ids"]))
    return EventRecord(
        time=float(data["t"]),
        kind=kind,
        edges_created=[EdgeCreated(s, t) for s, t in data["created"]],
        edges_destroyed=[EdgeDestroyed(s, t) for s, t in data["destroyed"]],
    )


def encode_report(report: RoundReport) -> dict:
    """Serialize a (possibly partially filled) observation window."""
    return {
        "start_time": report.start_time,
        "end_time": report.end_time,
        "events": [encode_event(event) for event in report.events],
    }


def decode_report(data: dict) -> RoundReport:
    """Inverse of :func:`encode_report`."""
    return RoundReport(
        start_time=float(data["start_time"]),
        end_time=float(data["end_time"]),
        events=[decode_event(event) for event in data["events"]],
    )


# ----------------------------------------------------------------------
# driver (de)serializers
# ----------------------------------------------------------------------


def _dump_streaming(network: StreamingNetwork) -> dict:
    return {"round_number": network.round_number}


def _restore_streaming(network: StreamingNetwork, data: dict) -> None:
    network.round_number = int(data["round_number"])


def _dump_threshold(network: ThresholdStreamingNetwork) -> dict:
    return {
        "round_number": network.round_number,
        "swept_all": network._swept_all,
        "grace_id": network._grace_id,
    }


def _restore_threshold(network: ThresholdStreamingNetwork, data: dict) -> None:
    network.round_number = int(data["round_number"])
    network._swept_all = bool(data["swept_all"])
    grace_id = data["grace_id"]
    network._grace_id = None if grace_id is None else int(grace_id)


def _dump_adversarial(network: AdversarialStreamingNetwork) -> dict:
    return {"round_number": network.round_number}


def _restore_adversarial(
    network: AdversarialStreamingNetwork, data: dict
) -> None:
    network.round_number = int(data["round_number"])


def _dump_poisson(network: PoissonNetwork) -> dict:
    return {"event_count": network.event_count}


def _restore_poisson(network: PoissonNetwork, data: dict) -> None:
    network.event_count = int(data["event_count"])


def _dump_general(network: GeneralChurnNetwork) -> dict:
    return {
        "event_count": network.event_count,
        "next_birth_time": network._next_birth_time,
        "pending_deaths": [
            list(entry) for entry in network.deaths.dump_pending()
        ],
    }


def _restore_general(network: GeneralChurnNetwork, data: dict) -> None:
    network.event_count = int(data["event_count"])
    network._next_birth_time = float(data["next_birth_time"])
    network.deaths.restore_pending(data["pending_deaths"])


def _dump_trace(network: TraceNetwork) -> dict:
    return {"round_number": network.round_number, "pos": network._pos}


def _restore_trace(network: TraceNetwork, data: dict) -> None:
    network.round_number = int(data["round_number"])
    network._pos = int(data["pos"])


#: Exact driver type -> (kind tag, dump, restore).  Drivers absent here
#: (the protocol-managed baselines) cannot be checkpointed.
_DRIVER_CODECS: dict[type, tuple[str, Any, Any]] = {
    StreamingNetwork: ("streaming", _dump_streaming, _restore_streaming),
    ThresholdStreamingNetwork: (
        "threshold", _dump_threshold, _restore_threshold,
    ),
    AdversarialStreamingNetwork: (
        "adversarial", _dump_adversarial, _restore_adversarial,
    ),
    PoissonNetwork: ("poisson", _dump_poisson, _restore_poisson),
    GeneralChurnNetwork: ("general", _dump_general, _restore_general),
    TraceNetwork: ("trace", _dump_trace, _restore_trace),
}


def _driver_codec(network: DynamicNetwork) -> tuple[str, Any, Any]:
    codec = _DRIVER_CODECS.get(type(network))
    if codec is None:
        supported = sorted(kind for kind, _, _ in _DRIVER_CODECS.values())
        raise CheckpointError(
            f"driver {type(network).__name__} does not support "
            f"checkpointing (supported churn models: {supported})"
        )
    return codec


def _skeleton_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The spec used to rebuild an *empty, unwarmed* driver skeleton.

    Restore overwrites the backend, RNG, clock, and driver bookkeeping
    afterwards, so warm-up must be disabled — it would burn RNG draws
    and wall-clock for state that is discarded.
    """
    params = dict(spec.churn_params)
    if spec.churn in ("streaming", "threshold", "adversarial"):
        params["warm"] = False
        params.pop("fast_warm", None)
    elif spec.churn in ("poisson", "general"):
        params["warm_time"] = 0.0
        params.pop("fast_warm", None)
    return spec.with_(churn_params=params)


# ----------------------------------------------------------------------
# the checkpoint object
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """A parsed, hash-verified checkpoint payload."""

    payload: dict
    path: Path | None = None

    @property
    def spec(self) -> ScenarioSpec:
        return ScenarioSpec.from_dict(self.payload["spec"])

    @property
    def time(self) -> float:
        return float(self.payload["time"])

    @property
    def rounds_completed(self) -> int:
        return int(self.payload["rounds_completed"])

    @property
    def observer_names(self) -> list[str]:
        return [entry["name"] for entry in self.payload["observers"]]


def build_payload(simulation: "Simulation") -> dict:
    """Capture a :class:`Simulation`'s full resumable state, encoded.

    Returns the :func:`encode_value` form (plain JSON structures, NumPy
    arrays as base64 blobs), encoded once; an observer whose state does
    not encode is named in the :class:`CheckpointError`.
    """
    network = simulation.network
    kind, dump, _ = _driver_codec(network)
    observers = []
    for observer in simulation.observers:
        try:
            state = encode_value(observer.state_dict())
        except CheckpointError as error:
            raise CheckpointError(
                f"observer {observer.name!r} has non-serializable state: "
                f"{error}"
            ) from error
        observers.append({"name": observer.name, "state": state})
    # Feeds exist only for observers with every > 0, so a feed's position
    # in _feeds is NOT its observer's position in simulation.observers —
    # record the observer-list index, which is what restore resolves.
    slot_of = {id(obs): i for i, obs in enumerate(simulation.observers)}
    payload = encode_value(
        {
            "spec": simulation.spec.to_dict(),
            "time": network.now,
            "rounds_completed": simulation.rounds_completed,
            "backend": network.state.dump_state(),
            "driver": {"kind": kind, **dump(network)},
            "rng": network.rng.bit_generator.state,
            "observers": [],
            "feeds": [
                {
                    "observer": slot_of[id(feed.observer)],
                    "window": encode_report(feed.window),
                    "last_flush_round": feed.last_flush_round,
                }
                for feed in simulation._feeds
            ],
        }
    )
    payload["observers"] = observers
    return payload


#: The envelope's keys in sorted order: what the file holds before the
#: payload text, and what follows it up to the hash.
_HEAD = f'{{"format":{json.dumps(FORMAT)},"payload":'
_HASH_KEY = ',"sha256":"'


def write_checkpoint(simulation: "Simulation", path: str | Path) -> Path:
    """Write *simulation*'s state to *path* atomically; returns the path.

    The scratch file is fsynced before the rename (and the directory
    after it, where the platform allows), so a crash or power loss never
    leaves *path* pointing at a partially written envelope.
    """
    target = Path(path)
    text = _canonical_text(build_payload(simulation))
    envelope = (
        f'{_HEAD}{text}{_HASH_KEY}{_text_hash(text)}","version":{VERSION}}}'
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    with scratch.open("w", encoding="utf-8") as handle:
        handle.write(envelope)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, target)
    try:  # best effort: persist the rename itself
        dir_fd = os.open(target.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    else:
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return target


def ranked_checkpoints(directory: str | Path) -> list[Path]:
    """``ckpt-*.json`` files in *directory*, least advanced first.

    Files are ranked by the round count embedded in the name (the
    ``-r<rounds>`` suffix written by :meth:`Simulation.save_checkpoint`),
    then by name, so the last entry is furthest along, not newest mtime.
    """
    return sorted(
        Path(directory).glob(f"{FILE_PREFIX}*.json"),
        key=lambda p: (_rounds_in_name(p.name), p.name),
    )


def latest_checkpoint(directory: str | Path) -> Path:
    """The most advanced ``ckpt-*.json`` file in *directory*."""
    candidates = ranked_checkpoints(directory)
    if not candidates:
        raise CheckpointError(
            f"no {FILE_PREFIX}*.json checkpoint files in {directory}"
        )
    return candidates[-1]


def _rounds_in_name(name: str) -> int:
    stem = name.rsplit(".", 1)[0]
    tail = stem.rsplit("-r", 1)
    try:
        return int(tail[1])
    except (IndexError, ValueError):
        return -1


def load_checkpoint(source: str | Path) -> Checkpoint:
    """Load and verify a checkpoint file (or the latest in a directory).

    For a directory, candidates are tried from most to least advanced:
    if the furthest-along file fails verification (corrupted, truncated,
    wrong version), a warning is emitted and the next one is tried, so a
    single damaged file never makes a directory of good checkpoints
    unrestorable.
    """
    path = Path(source)
    if not path.is_dir():
        return _load_checkpoint_file(path)
    candidates = ranked_checkpoints(path)
    if not candidates:
        raise CheckpointError(
            f"no {FILE_PREFIX}*.json checkpoint files in {path}"
        )
    failures: list[str] = []
    for candidate in reversed(candidates):
        try:
            return _load_checkpoint_file(candidate)
        except CheckpointError as error:
            warnings.warn(
                f"skipping unusable checkpoint {candidate.name}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
            failures.append(f"{candidate.name}: {error}")
    raise CheckpointError(
        f"no loadable checkpoint in {path}; all candidates failed: "
        + "; ".join(failures)
    )


def _written_payload(text: str) -> str | None:
    """The payload text as the file holds it, between ``"payload":`` and
    ``,"sha256"``; None when the file does not open as written."""
    end = text.rfind(_HASH_KEY)
    if not text.startswith(_HEAD) or end < len(_HEAD):
        return None
    return text[len(_HEAD) : end]


def _load_checkpoint_file(path: Path) -> Checkpoint:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {error}"
        ) from error
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated write?): "
            f"{error}"
        ) from error
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT:
        raise CheckpointError(f"{path} is not a {FORMAT} file")
    if envelope.get("version") != VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version "
            f"{envelope.get('version')!r}; this build reads version "
            f"{VERSION}"
        )
    recorded = envelope.get("sha256")
    written = _written_payload(text)
    if written is None or _text_hash(written) != recorded:
        # Another layout of the envelope (older files were spaced), or a
        # corrupted file: check the canonical text of what was parsed.
        actual = _text_hash(_canonical_text(envelope["payload"]))
        if recorded != actual:
            raise CheckpointError(
                f"checkpoint {path} failed content-hash verification "
                f"(recorded {recorded!r}, computed {actual!r}) — the file "
                "is corrupted"
            )
    return Checkpoint(payload=decode_value(envelope["payload"]), path=path)


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------


def rebuild_network(checkpoint: Checkpoint) -> DynamicNetwork:
    """Reconstruct the driver + backend + RNG at the checkpointed instant."""
    spec = checkpoint.spec
    driver = checkpoint.payload["driver"]
    backend_payload = checkpoint.payload["backend"]
    # Only "array" state restores: a "dict" kind raises, naming the oracle.
    resolve_backend_name(str(backend_payload["kind"]))
    network = build_network(_skeleton_spec(spec), seed=0)
    kind, _, restore = _driver_codec(network)
    if kind != driver["kind"]:
        raise CheckpointError(
            f"checkpoint records a {driver['kind']!r} driver but the spec "
            f"builds {kind!r}"
        )
    network.state.restore_state(backend_payload)
    network.rng.bit_generator.state = checkpoint.payload["rng"]
    restore(network, driver)
    network.clock.advance_to(checkpoint.time)
    return network


def restore_observers(
    checkpoint: Checkpoint, declarations: tuple = ()
) -> "list[Observer]":
    """Rebuild the checkpoint's observers with their recorded state.

    With no *declarations*, each observer is re-created by registry name
    (every stock observer is no-argument constructible; cadence and
    parameters are part of the recorded state).  Explicit declarations
    (for custom observer classes) must match the recorded names
    one-for-one, in order.
    """
    from repro.scenario.observers import make_observer
    from repro.scenario.simulation import resolve_observer

    entries = checkpoint.payload["observers"]
    if declarations:
        observers = [resolve_observer(d) for d in declarations]
        names = [observer.name for observer in observers]
        recorded = [entry["name"] for entry in entries]
        if names != recorded:
            raise CheckpointError(
                f"observer declarations {names} do not match the "
                f"checkpoint's recorded observers {recorded}"
            )
    else:
        observers = []
        for entry in entries:
            try:
                observers.append(make_observer(entry["name"]))
            except Exception as error:
                raise CheckpointError(
                    f"cannot rebuild observer {entry['name']!r} from the "
                    f"registry ({error}); pass observers= declarations "
                    "to Simulation.restore for custom observer classes"
                ) from error
    for observer, entry in zip(observers, entries):
        observer.load_state_dict(entry["state"])
    return observers


# ----------------------------------------------------------------------
# filenames
# ----------------------------------------------------------------------

_SESSION_COUNTER = itertools.count(1)


def next_session_tag() -> str:
    """A per-process-unique tag for one Simulation's checkpoint series.

    Combines the pid with a process-local counter so concurrent
    processes (and multiple simulations in one process, e.g. an
    experiment's replication loop) can share a checkpoint directory
    without overwriting each other's files.
    """
    return f"{os.getpid():x}-{next(_SESSION_COUNTER):04d}"


def checkpoint_filename(tag: str, rounds_completed: int) -> str:
    """Canonical checkpoint filename for a session tag + round count."""
    return f"{FILE_PREFIX}{tag}-r{int(rounds_completed):010d}.json"
