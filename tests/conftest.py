"""Shared fixtures and helpers for the test suite.

The library has one topology backend, ``ArraySlotBackend``; every driver
builds it by default.  Parity suites check it against the readable dict
reference, ``tests.oracles.dict_backend.DictBackend``: the ``backend_cls``
fixture hands a test either class to pass as ``backend=`` to a driver,
and the ``driver_backend`` fixture puts every driver a test builds —
spec-built sessions included — on one or the other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.array_backend import ArraySlotBackend
from repro.core.backend import GraphBackend
from repro.core.snapshot import Snapshot
from tests.oracles.dict_backend import BACKENDS, build_drivers_on_oracle


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (full experiment configurations)"
    )


@pytest.fixture(params=list(BACKENDS))
def backend_cls(request: pytest.FixtureRequest) -> type[GraphBackend]:
    """Backend class, for tests that run on the oracle and the array backend.

    Pass an instance to a driver (``SDGR(..., backend=backend_cls())``).
    """
    return BACKENDS[request.param]


@pytest.fixture(params=list(BACKENDS))
def driver_backend(
    request: pytest.FixtureRequest, monkeypatch: pytest.MonkeyPatch
) -> str:
    """Backend name every driver of the test is built on, for
    session-level parity tests (see :func:`build_drivers_on_oracle`)."""
    if request.param == "dict":
        build_drivers_on_oracle(monkeypatch)
    return request.param


class Int64CSRBackend(ArraySlotBackend):
    """The array backend with its CSR arrays widened to int64 after each
    rebuild: the int64 side of the index-width parity tests.  At test
    scale the production backend always builds int32 ``indptr``/``indices``
    (:func:`~repro.core.csr.csr_index_dtype`), so views, floods and
    gossip on this backend run the wide paths on the same topology."""

    def _ensure_csr(self) -> None:
        super()._ensure_csr()
        self._csr_indptr = self._csr_indptr.astype(np.int64, copy=False)
        self._csr_indices = self._csr_indices.astype(np.int64, copy=False)


def snapshot_from_edges(
    num_nodes: int,
    edges: list[tuple[int, int]],
    time: float = 0.0,
    birth_times: dict[int, float] | None = None,
) -> Snapshot:
    """Build a Snapshot from an explicit undirected edge list.

    Nodes are ``0 .. num_nodes-1``; out_slots are left empty (tests that
    need slots build real models instead).
    """
    adjacency: dict[int, set[int]] = {u: set() for u in range(num_nodes)}
    for u, v in edges:
        if u == v:
            raise ValueError("no self loops in tests")
        adjacency[u].add(v)
        adjacency[v].add(u)
    births = birth_times or {u: 0.0 for u in range(num_nodes)}
    return Snapshot(
        time=time,
        nodes=frozenset(range(num_nodes)),
        adjacency={u: frozenset(nbrs) for u, nbrs in adjacency.items()},
        birth_times=births,
        out_slots={u: () for u in range(num_nodes)},
    )


def path_snapshot(num_nodes: int) -> Snapshot:
    """A path 0-1-2-…-(n-1)."""
    return snapshot_from_edges(
        num_nodes, [(i, i + 1) for i in range(num_nodes - 1)]
    )


def cycle_snapshot(num_nodes: int) -> Snapshot:
    """A cycle on num_nodes nodes."""
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return snapshot_from_edges(num_nodes, edges)


def complete_snapshot(num_nodes: int) -> Snapshot:
    """The complete graph K_n."""
    edges = [
        (i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)
    ]
    return snapshot_from_edges(num_nodes, edges)


@pytest.fixture
def path8() -> Snapshot:
    return path_snapshot(8)


@pytest.fixture
def cycle10() -> Snapshot:
    return cycle_snapshot(10)


@pytest.fixture
def complete6() -> Snapshot:
    return complete_snapshot(6)
