"""Content-addressed result store: sweep cells cached by what they *are*.

A cell's identity is everything that determines its result: the realized
scenario, the measurement name and parameters, the sweep's master seed /
stream name / cell index (which together pin the cell's RNG stream), and
the library version.
:func:`cell_key` hashes that identity into a sha256 hex digest; the
store maps digests to small JSON files under a two-level fan-out
(``<root>/<k[:2]>/<k>.json``).

Because the key is content-addressed, the store needs no index, no
locking protocol beyond atomic file placement (write to a temp name,
fsync, then ``os.replace``), and no invalidation logic: change anything
that could change the result and you simply look up a different key.  A
corrupted entry — truncated JSON, wrong payload shape, a digest that
does not match its filename — is indistinguishable from a miss: the
cell re-executes and the entry is rewritten.

**Work claims.**  The store doubles as the coordination point for
multi-host sweeps (see :mod:`repro.api`): a worker *claims* a pending
cell by ``O_EXCL``-creating ``<k>.claim`` next to the result path —
creation succeeds for exactly one contender — and releases the claim by
writing the result.  A claim records its owner, a monotonic heartbeat
counter, and a TTL; a claim whose file has not been touched within its
TTL is *expired* and may be taken over by another worker.  Claims are a
work-distribution optimization, never a correctness mechanism: cells
are deterministic, so two workers racing the same cell write identical
payloads and :meth:`ResultStore.put` (atomic, last-writer-wins) remains
the only commit point — a worker crashing at any instant leaves the
store consistent.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro import __version__ as _REPRO_VERSION

#: Bump when the payload schema changes (old entries become misses).
STORE_FORMAT = 1

#: Default lifetime of a work claim.  A worker refreshes its pending
#: claims only after a quarter of the TTL has passed, so a single cell
#: must finish within three quarters of it, or live claims get taken
#: over and cells execute twice (harmless for correctness — results are
#: deterministic and the commit is last-writer-wins — but wasteful).
DEFAULT_CLAIM_TTL = 300.0

#: Portable stand-ins for IEEE non-finite floats.  ``json.dumps`` would
#: otherwise emit the non-standard ``NaN``/``Infinity`` literals, which
#: most non-Python JSON implementations reject — keys and payloads
#: carrying them would not be portable across hosts, and ``NaN`` breaks
#: fresh == cached equality (``NaN != NaN``).
_NONFINITE_SENTINELS = {"NaN", "Infinity", "-Infinity"}


def default_host() -> str:
    """This process's identity in claims and result provenance."""
    return f"{socket.gethostname()}:{os.getpid()}"


def encode_nonfinite(value: Any) -> Any:
    """Recursively replace non-finite floats with string sentinels.

    ``nan`` → ``"NaN"``, ``inf`` → ``"Infinity"``, ``-inf`` →
    ``"-Infinity"``; containers are rebuilt, everything else passes
    through.  The encoding is not injective (a measurement returning the
    literal string ``"NaN"`` is indistinguishable from one returning the
    float), which is the price of staying inside standard JSON; use
    :func:`decode_nonfinite` to map sentinels back to floats.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, Mapping):
        return {key: encode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_nonfinite(item) for item in value]
    return value


def decode_nonfinite(value: Any) -> Any:
    """The inverse of :func:`encode_nonfinite` (sentinel strings → floats)."""
    if isinstance(value, str) and value in _NONFINITE_SENTINELS:
        return float(value)
    if isinstance(value, Mapping):
        return {key: decode_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [decode_nonfinite(item) for item in value]
    return value


def canonical_json(data: Any) -> str:
    """Deterministic, standard-conforming JSON text for hashing.

    Sorted keys, no whitespace, and non-finite floats sentinel-encoded
    (``allow_nan=False`` guarantees no ``NaN``/``Infinity`` literal can
    reach the output), so the same identity hashes to the same key on
    every host and under every JSON implementation.  Data with no
    non-finite float and only JSON-native containers is dumped as is;
    only a refused dump walks it through :func:`encode_nonfinite`,
    which gives the same text for the rest.
    """
    try:
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (ValueError, TypeError):
        pass
    return json.dumps(
        encode_nonfinite(data),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def atomic_write_text(path: Path, text: str, durable: bool = True) -> Path:
    """Atomically write *text* to *path*: temp file, fsync, rename.

    The rename is the commit point; the fsync (plus a best-effort
    directory fsync) makes the committed bytes survive a host crash,
    which matters now that store files double as cross-host commit
    records.  ``durable=False`` skips both fsyncs and keeps only the
    atomic rename — for files whose loss in a crash is harmless.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.stem[:8]}-", suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    if not durable:
        return path
    try:  # directory entry durability — best-effort (not all FS allow it)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def cell_key(
    scenario: Mapping[str, Any],
    measure: str,
    measure_params: Mapping[str, Any],
    seed: int,
    stream: str,
    index: int,
    backend: str,
) -> str:
    """The content address of one sweep cell result.

    *scenario* is the cell's realized ``ScenarioSpec.to_dict()``.
    *backend* is always ``"array"``, the only backend; the component
    stays in the identity so existing keys do not change.
    """
    identity = {
        "format": STORE_FORMAT,
        "version": _REPRO_VERSION,
        "scenario": dict(scenario),
        "measure": measure,
        "measure_params": dict(measure_params),
        "seed": int(seed),
        "stream": stream,
        "cell": int(index),
        "backend": backend,
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


class ResultStore:
    """Filesystem-backed content-addressed store of cell results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for *key*, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None  # missing or corrupted — the caller re-executes
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or payload.get("format") != STORE_FORMAT
            or "value" not in payload
        ):
            return None
        return payload

    def put(self, key: str, value: Any, elapsed: float, **meta: Any) -> Path:
        """Atomically persist one cell result (last writer wins).

        The write is durable (fsync before rename): in a multi-host
        sweep the result file *is* the record that the cell's work —
        and its claim — is settled, so it must survive a crash of the
        writing host.
        """
        path = self.path_for(key)
        payload = {
            "format": STORE_FORMAT,
            "key": key,
            "value": value,
            "elapsed": float(elapsed),
            **meta,
        }
        return atomic_write_text(path, json.dumps(payload, sort_keys=True))

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # work claims (the multi-host coordination protocol)
    # ------------------------------------------------------------------

    def claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.claim"

    def claim(
        self, key: str, owner: str, ttl: float = DEFAULT_CLAIM_TTL
    ) -> bool:
        """Try to claim cell *key* for *owner*; True when acquired.

        Acquisition is ``O_EXCL`` file creation — atomic on POSIX and
        NFS alike, so exactly one of N racing workers wins.  An existing
        claim blocks acquisition unless it has expired (no heartbeat
        within its recorded TTL), in which case it is removed and
        re-contended: the unlink+create pair is not atomic, so in the
        worst case two workers briefly both believe they own an expired
        cell — they then compute the same deterministic result and the
        later :meth:`put` harmlessly overwrites the earlier one.
        """
        path = self.claim_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "owner": owner,
            "pid": os.getpid(),
            "heartbeat": 0,
            "ttl": float(ttl),
        }
        for _ in range(2):  # second try only after clearing an expired claim
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                info = self.claim_info(key)
                if info is None:
                    continue  # claim vanished under us — re-contend
                if not info["expired"]:
                    return False
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.flush()
                try:
                    os.fsync(handle.fileno())
                except OSError:
                    pass
            return True
        return False

    def claim_info(self, key: str) -> dict[str, Any] | None:
        """The current claim on *key* (with ``expired`` computed), or None.

        Expiry is judged from the claim file's mtime — refreshed by
        :meth:`heartbeat` — against the TTL the claimer recorded, so a
        reader needs no clock agreement with the claimer beyond the
        shared filesystem's.  An unreadable claim file (a claimer that
        crashed mid-create) still counts as a claim; it expires on the
        default TTL.
        """
        path = self.claim_path(key)
        try:
            stat = path.stat()
        except OSError:
            return None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                payload = {}
        except (OSError, ValueError):
            payload = {}
        ttl = payload.get("ttl", DEFAULT_CLAIM_TTL)
        if not isinstance(ttl, (int, float)) or ttl <= 0:
            ttl = DEFAULT_CLAIM_TTL
        age = max(0.0, time.time() - stat.st_mtime)
        return {
            "owner": payload.get("owner"),
            "pid": payload.get("pid"),
            "heartbeat": payload.get("heartbeat", 0),
            "ttl": float(ttl),
            "age": age,
            "expired": age > ttl,
        }

    def heartbeat(self, key: str, owner: str) -> bool:
        """Refresh *owner*'s claim on *key* (bumps the heartbeat counter).

        Returns False — without touching anything — when the claim is
        gone or now owned by someone else (a takeover happened; the
        caller should treat the cell as lost and move on).  The rewrite
        is atomic but not fsynced: a heartbeat lost in a host crash only
        lets the claim expire, which a crashed owner's claim should do
        anyway.
        """
        path = self.claim_path(key)
        payload = self._owned_payload(path, owner)
        if payload is None:
            return False
        payload["heartbeat"] = int(payload.get("heartbeat", 0)) + 1
        try:
            atomic_write_text(
                path, json.dumps(payload, sort_keys=True), durable=False
            )
        except OSError:
            return False
        return True

    def release(self, key: str, owner: str) -> None:
        """Drop *owner*'s claim on *key*.

        Idempotent: a missing claim is fine.  A claim held by someone
        else — a peer took it over after it expired — or one whose owner
        cannot be read is left in place, so a slow worker never frees a
        cell its new owner is still computing.
        """
        path = self.claim_path(key)
        if self._owned_payload(path, owner) is None:
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def _owned_payload(path: Path, owner: str) -> dict | None:
        """The claim payload at *path* if *owner* holds it, else None
        (missing, unreadable or someone else's)."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("owner") != owner:
            return None
        return payload

    def claims(self) -> Iterator[str]:
        """Keys of every claim file currently present (live or expired)."""
        for path in sorted(self.root.glob("??/*.claim")):
            yield path.stem

    # ------------------------------------------------------------------
    # hygiene
    # ------------------------------------------------------------------

    def sweep_orphans(self, max_age: float = 3600.0) -> int:
        """Remove temp files abandoned by killed writers; returns count.

        Atomic writes stage through ``.{prefix}-*.tmp`` names in the
        fan-out directories; a writer killed between create and rename
        leaks one.  Orphans are invisible to :meth:`get`/:meth:`keys`
        (wrong suffix), so this is purely disk hygiene — only files
        older than *max_age* seconds go, never a write in flight.
        """
        removed = 0
        now = time.time()
        for path in self.root.glob("??/.*.tmp"):
            try:
                if now - path.stat().st_mtime > max_age:
                    path.unlink()
                    removed += 1
            except OSError:
                continue  # vanished or unreadable — someone else's problem
        return removed
