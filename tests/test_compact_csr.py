"""The array backend's compact (int32) CSR mode.

``ArraySlotBackend(compact_csr=True)`` stores the CSR arrays and the id
column as int32.  That may change the storage only: the same seeded run,
through per-event rounds and then fused windows, must give the same
analyses, the same flood and the same vectorized gossip as the int64
default, and a dumped and restored backend keeps the mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    adversarial_expansion_upper_bound,
    component_summary,
    degree_summary,
)
from repro.analysis.distances import bfs_distances
from repro.core.array_backend import ArraySlotBackend
from repro.flooding import flood_discrete, gossip_push_pull
from repro.models import SDG, SDGR

FACTORIES = {"SDG": SDG, "SDGR": SDGR}


def build(model: str, compact: bool):
    """A warm n = 500, d = 4 run: 30 per-event rounds, then 150 fused
    rounds in windows of 60."""
    backend = ArraySlotBackend(compact_csr=compact)
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


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_compact_mode_matches_int64_mode(model):
    compact = build(model, compact=True)
    view = compact.state.csr_view(compact.now)
    assert view.indptr.dtype == np.int32
    assert view.indices.dtype == np.int32
    assert view.vert_ids.dtype == np.int32
    assert analyses(compact) == analyses(build(model, compact=False))


@pytest.mark.parametrize("model", sorted(FACTORIES))
def test_dump_and_restore_keep_compact_mode(model):
    network = build(model, compact=True)
    restored = ArraySlotBackend(compact_csr=False)
    restored.restore_state(network.state.dump_state())
    assert restored.compact_csr
    before = network.state.csr_view(network.now)
    after = restored.csr_view(network.now)
    for name in ("indptr", "indices", "vert_ids", "alive_verts"):
        assert getattr(after, name).dtype == getattr(before, name).dtype
        assert np.array_equal(getattr(after, name), getattr(before, name))
    assert restored.dump_state()["compact_csr"] is True
