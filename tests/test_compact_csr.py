"""The CSR index width, worked out from sizes.

``indptr``/``indices`` are int32 while the vert space and the directed
entry count fit below 2^31 (:func:`~repro.core.csr.csr_index_dtype`),
which holds for every view at test scale; node ids stay int64.  The
width may change the storage only: the same seeded run, through
per-event rounds and then fused windows, must give the same analyses,
the same flood and the same vectorized gossip as on int64 CSR arrays
(:class:`~tests.conftest.Int64CSRBackend`), and a dumped and restored
backend, including one dumped by the earlier opt-in int32 mode, must
give the same views and continue the same way.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis import (
    adversarial_expansion_upper_bound,
    component_summary,
    degree_summary,
)
from repro.analysis.distances import bfs_distances
from repro.core.array_backend import ArraySlotBackend
from repro.core.csr import csr_index_dtype, csr_view_from_snapshot
from repro.flooding import flood_discrete, gossip_push_pull
from repro.models import SDG, SDGR
from tests.conftest import Int64CSRBackend

FACTORIES = {"SDG": SDG, "SDGR": SDGR}
LIMIT = 1 << 31


def build(model: str, backend=None):
    """A warm n = 500, d = 4 run: 30 per-event rounds, then 150 fused
    rounds in windows of 60."""
    network = FACTORIES[model](n=500, d=4, seed=11, backend=backend)
    network.run_rounds(30)
    network.advance_to_time_batched(network.now + 150, window=60)
    return network


def analyses(network) -> dict:
    """Everything below reads *view* before the flood and the gossip
    advance the network."""
    view = network.state.csr_view(network.now)
    return {
        "degrees": degree_summary(view),
        "expansion": adversarial_expansion_upper_bound(
            view, seed=5, max_size=60
        ),
        "components": component_summary(view),
        "distances": bfs_distances(view, network.state.youngest_alive()),
        "flood": flood_discrete(network),
        "gossip": gossip_push_pull(network, seed=2, vectorized=True),
    }


def test_index_width_switches_at_two_to_the_31():
    assert csr_index_dtype(LIMIT - 1, LIMIT - 1) == np.int32
    assert csr_index_dtype(LIMIT, 0) == np.int64
    assert csr_index_dtype(0, LIMIT) == np.int64
    assert csr_index_dtype(LIMIT, LIMIT) == np.int64


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_views_at_test_scale_are_int32(model):
    network = build(model)
    for view in (
        network.state.csr_view(network.now),
        csr_view_from_snapshot(network.snapshot()),
    ):
        assert view.indptr.dtype == np.int32
        assert view.indices.dtype == np.int32
        assert view.vert_ids.dtype == np.int64


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_compact_mode_matches_int64_mode(model):
    wide = build(model, Int64CSRBackend())
    view = wide.state.csr_view(wide.now)
    assert view.indptr.dtype == view.indices.dtype == np.int64
    assert analyses(build(model)) == analyses(wide)


def _digest(backend: ArraySlotBackend) -> dict:
    dump = backend.dump_state()
    return {
        key: hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        if isinstance(value, np.ndarray)
        else value
        for key, value in dump.items()
    }


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_dump_and_restore_keep_compact_mode(model):
    network = build(model)
    restored = ArraySlotBackend()
    restored.restore_state(network.state.dump_state())
    before = network.state.csr_view(network.now)
    after = restored.csr_view(network.now)
    for name in ("indptr", "indices", "vert_ids", "alive_verts"):
        assert getattr(after, name).dtype == getattr(before, name).dtype
        assert np.array_equal(getattr(after, name), getattr(before, name))
    assert after.indptr.dtype == np.int32
    assert _digest(restored) == _digest(network.state)


@pytest.mark.parametrize("flag", [False, True], ids=["int64-ids", "int32-ids"])
def test_earlier_payloads_restore_and_continue(flag):
    """Payloads of the earlier opt-in int32 mode carry its flag, and the
    int32 id column when it was on; both restore to the same state and
    the run continues bit-identically."""
    reference = build("SDGR")
    network = build("SDGR")
    payload = network.state.dump_state()
    payload["compact_csr"] = flag
    if flag:
        payload["id_of"] = payload["id_of"].astype(np.int32)
    network.state.restore_state(payload)
    assert "compact_csr" not in network.state.dump_state()
    assert _digest(network.state) == _digest(reference.state)
    for net in (reference, network):
        net.run_rounds(5)
        net.advance_to_time_batched(net.now + 40, window=20)
    assert _digest(network.state) == _digest(reference.state)
    assert analyses(network) == analyses(reference)
