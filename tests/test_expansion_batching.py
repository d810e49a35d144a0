"""Chunking and key-width invariance of the expansion probe, and the
batched boundary scorer :meth:`CSRView.boundary_counts`.

The golden views (``tests/test_expansion_golden.py``) have 240 nodes, so
their ball phase runs as one chunk with int32 flat keys.  Here 600-node
SDGR views (on the backend's int32 CSR, on the same CSR widened to int64,
and converted from a snapshot, whose CSR rows are unsorted) run the cold
probe with the ball chunk shrunk to 7 and to 64 and,
separately, with the int64 key fallback forced.  The probe result, the
``seen`` keys and ``checked`` must equal the default run's, and so must
the recorded ball stream once sorted by ``(root, radius)`` (chunking
changes only the order it is recorded in).

The ball phase has two kernels, flat-key shells and bitset levels
(:func:`~repro.analysis.expansion._choose_ball_kernel` picks one).  The
variants ``flat-key``, ``bitset`` and ``bitset-blocks`` (bitset with a
one-ball XOR lookup block) force one; forced runs must also match each
other *unsorted*, on these views, on the 30 golden cases, and through a
:class:`ProbeCache` over churn windows.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis import expansion
from repro.analysis.expansion import (
    _CSRProbe,
    adversarial_expansion_upper_bound,
    large_set_expansion_probe,
)
from repro.analysis.incremental import ProbeCache
from repro.core import csr
from repro.core.csr import csr_view_from_snapshot, flat_key_dtype
from repro.models import SDGR
from repro.util.rng import make_rng
from tests import test_expansion_golden as golden
from tests.conftest import Int64CSRBackend, snapshot_from_edges

N = 600
WINDOWS = ((1, 32), (1, None), (20, 40), (1, 1))
KERNELS = ("flat-key", "bitset", "bitset-blocks")
VARIANTS = ("chunk-7", "chunk-64", "int64-keys") + KERNELS


@pytest.fixture(scope="module", params=["int64-csr", "compact-csr", "snapshot"])
def view(request):
    wide = request.param == "int64-csr"
    network = SDGR(n=N, d=8, seed=7, backend=Int64CSRBackend() if wide else None)
    network.run_rounds(6)
    if request.param == "snapshot":
        return csr_view_from_snapshot(network.snapshot())
    return network.state.csr_view(network.now)


def _cold_probe(view, window) -> tuple:
    """Everything a cold probe leaves behind, recorder stream in
    ``(root, radius)`` order."""
    lo, hi = window
    hi = view.n // 2 if hi is None else min(hi, view.n // 2)
    probe = _CSRProbe(view, lo, hi)
    probe.ball_phase()
    roots, radii = probe.recorder.roots()
    entries = probe.recorder.entries()
    probe.score_recorded(*entries)
    probe.greedy_phase(8)
    probe.random_phase(make_rng(3), 25)
    by_root = np.argsort(roots, kind="stable")
    by_root_radius = np.lexsort((entries[1], entries[0]))
    return (
        probe.result(),
        sorted(probe.seen),
        probe.checked,
        roots[by_root].tolist(),
        radii[by_root].tolist(),
        [array[by_root_radius].tolist() for array in entries],
        large_set_expansion_probe(view, lo, hi, seed=3, num_random_sets=25),
    )


def _force(kernel: str, monkeypatch) -> None:
    """Make every ball phase run *kernel* (a :data:`KERNELS` entry)."""
    if kernel == "bitset-blocks":
        monkeypatch.setattr(expansion, "_BITSET_BLOCK_BYTES", 1)
    name = kernel.removesuffix("-blocks")
    monkeypatch.setattr(
        expansion, "_choose_ball_kernel", lambda view, sources, max_size: name
    )


def _apply(variant: str, monkeypatch) -> None:
    if variant == "int64-keys":
        monkeypatch.setattr(csr, "_INT32_KEYS_BELOW", 0)
    elif variant in KERNELS:
        _force(variant, monkeypatch)
    else:
        monkeypatch.setattr(expansion, "_BALL_CHUNK", int(variant.split("-")[1]))


def test_default_run_is_chunked_with_int32_keys(view):
    assert view.n > expansion._BALL_CHUNK
    assert flat_key_dtype(expansion._BALL_CHUNK, view.space) == np.int32


@pytest.mark.parametrize("window", WINDOWS, ids=str)
@pytest.mark.parametrize("variant", VARIANTS)
def test_probe_invariant_to_chunk_and_key_width(view, window, variant, monkeypatch):
    default = _cold_probe(view, window)
    _apply(variant, monkeypatch)
    assert _cold_probe(view, window) == default


def test_int64_fallback_really_widens(monkeypatch):
    monkeypatch.setattr(csr, "_INT32_KEYS_BELOW", 0)
    assert flat_key_dtype(1, 1) == np.int64


def test_int32_limit_counts_the_top_row_bound():
    space = 1 << 20
    assert flat_key_dtype((1 << 11) - 2, space) == np.int32
    assert flat_key_dtype((1 << 11) - 1, space) == np.int64


# ----------------------------------------------------------------------
# the two ball kernels
# ----------------------------------------------------------------------


def _raw_probe(view, window) -> tuple[str, tuple]:
    """The kernel a cold probe ran, and its result, ``seen`` keys,
    ``checked`` and raw recorder stream (recording order, dtypes kept)."""
    lo, hi = window
    hi = view.n // 2 if hi is None else min(hi, view.n // 2)
    probe = _CSRProbe(view, lo, hi)
    probe.ball_phase()
    roots, radii = probe.recorder.roots()
    entries = probe.recorder.entries()
    stream = [(array.dtype.str, array.tobytes()) for array in (roots, radii, *entries)]
    probe.score_recorded(*entries)
    probe.greedy_phase(8)
    probe.random_phase(make_rng(3), 25)
    return probe.ball_kernel, (
        probe.result(),
        sorted(probe.seen),
        probe.checked,
        stream,
    )


@pytest.mark.parametrize("window", WINDOWS, ids=str)
def test_kernels_record_identical_streams(view, window, monkeypatch):
    runs = {}
    for kernel in KERNELS:
        with monkeypatch.context() as patch:
            _force(kernel, patch)
            ran, runs[kernel] = _raw_probe(view, window)
        assert ran == kernel.removesuffix("-blocks")
    assert runs["bitset"] == runs["flat-key"]
    assert runs["bitset-blocks"] == runs["flat-key"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "case", golden.CASES, ids=[f"{v}-{w[0]}-{w[1]}-s{s}" for v, w, s in golden.CASES]
)
def test_golden_digests_under_each_kernel(case, kernel, monkeypatch):
    _force(kernel, monkeypatch)
    chosen = []
    forced = expansion._choose_ball_kernel
    monkeypatch.setattr(
        expansion,
        "_choose_ball_kernel",
        lambda *args: chosen.append(forced(*args)) or chosen[-1],
    )
    assert golden.compute(*case) == golden.GOLDEN[case]
    assert set(chosen) == {kernel.removesuffix("-blocks")}


def test_probe_cache_windows_agree_across_kernels(monkeypatch):
    params = dict(num_random_sets=25, max_size=40)
    runs = {}
    for kernel in KERNELS:
        with monkeypatch.context() as patch:
            _force(kernel, patch)
            net = SDGR(n=N, d=8, seed=11, backend="array")
            net.run_rounds(6)
            cache = ProbeCache(net.state, **params)
            runs[kernel] = []
            for window in range(3):
                view = net.state.csr_view(net.now)
                probe = cache.probe(view, seed=5)
                stats = cache.last_stats
                assert stats["ball_kernel"] == kernel.removesuffix("-blocks")
                assert (stats["replayed"] > 0) == (window > 0)
                cold = adversarial_expansion_upper_bound(view, seed=5, **params)
                assert probe == cold
                runs[kernel].append(probe)
                net.run_rounds(2)
    assert runs["bitset"] == runs["flat-key"] == runs["bitset-blocks"]


@pytest.mark.parametrize("kernel", KERNELS[:2])
def test_error_in_either_kernel_drops_the_mask(view, kernel, monkeypatch):
    with monkeypatch.context() as patch:
        _force("flat-key", patch)
        _CSRProbe(view, 1, 32).ball_phase()
    assert expansion._ball_visited is not None
    _force(kernel, monkeypatch)
    probe = _CSRProbe(view, 1, 32, recorder=golden._FailingRecorder())
    with pytest.raises(RuntimeError, match="recorder failure"):
        probe.ball_phase()
    assert expansion._ball_visited is None


def test_selector_follows_the_source_count(view):
    assert expansion._choose_ball_kernel(view, view.n, 32) == "bitset"
    assert expansion._choose_ball_kernel(view, view.n, view.n // 2) == "bitset"
    assert expansion._choose_ball_kernel(view, 3, 32) == "flat-key"


def test_selector_keeps_bitset_within_scratch_budget(view, monkeypatch):
    need = expansion._bitset_working_set(
        view.n, int(view.degrees.sum()), view.space
    )
    monkeypatch.setattr(expansion, "_BALL_SCRATCH_BYTES", need)
    assert expansion._choose_ball_kernel(view, view.n, view.n // 2) == "bitset"
    monkeypatch.setattr(expansion, "_BALL_SCRATCH_BYTES", need - 1)
    assert expansion._choose_ball_kernel(view, view.n, view.n // 2) == "flat-key"


def test_working_set_bounds_the_bitset_peak(view, monkeypatch):
    _force("bitset", monkeypatch)
    probe = _CSRProbe(view, 1, view.n // 2)
    tracemalloc.start()
    try:
        probe.ball_phase()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= expansion._bitset_working_set(
        view.n, int(view.degrees.sum()), view.space
    )


# ----------------------------------------------------------------------
# CSRView.boundary_counts
# ----------------------------------------------------------------------


def _reference(snapshot, view, sets) -> list[int]:
    return [
        len(snapshot.outer_boundary(view.vert_ids[verts].tolist())) for verts in sets
    ]


def _check(snapshot, view, sets) -> None:
    batched = view.boundary_counts(sets)
    assert batched.dtype == np.int64
    assert batched.tolist() == [view.boundary_count(verts) for verts in sets]
    assert batched.tolist() == _reference(snapshot, view, sets)


def _crafted():
    """Two triangles joined by an edge, a pendant path, and isolated 9, 10."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (6, 7), (7, 8)]
    snapshot = snapshot_from_edges(11, edges)
    return snapshot, csr_view_from_snapshot(snapshot)


def test_boundary_counts_on_crafted_sets():
    snapshot, view = _crafted()
    sets = [
        view.verts_for([9]),  # isolated singleton
        view.verts_for([9, 10]),  # isolated members only
        view.verts_for([9, 2]),  # an isolated member beside a cut vertex
        view.verts_for([3]),  # singleton
        view.verts_for([6, 7, 8]),  # a whole component: empty boundary
        view.verts_for([0, 1, 2, 3, 4, 5]),  # the other component
        view.verts_for([2, 0]),  # unsorted members
        view.verts_for([]),  # the empty set
        view.verts_for([7]),
    ]
    _check(snapshot, view, sets)
    assert view.boundary_counts(sets).tolist() == [0, 0, 3, 3, 0, 0, 2, 0, 2]


def test_boundary_counts_of_no_sets():
    _, view = _crafted()
    assert view.boundary_counts([]).tolist() == []


@pytest.fixture(scope="module")
def snapshot_view():
    """A seeded SDGR snapshot and its converted view (unsorted CSR rows)."""
    network = SDGR(n=300, d=4, seed=5, backend="array")
    network.run_rounds(4)
    snapshot = network.snapshot()
    view = csr_view_from_snapshot(snapshot)
    rows = [view.neighbors_of_vert(v) for v in range(view.space)]
    assert any((np.diff(row) < 0).any() for row in rows)
    return snapshot, view


def _random_sets(view, count: int, seed: int) -> list[np.ndarray]:
    rng = make_rng(seed)
    sizes = rng.integers(1, view.n // 2, size=count)
    return [view.alive_verts[rng.choice(view.n, size=s, replace=False)] for s in sizes]


def test_boundary_counts_on_snapshot_view(snapshot_view):
    snapshot, view = snapshot_view
    _check(snapshot, view, _random_sets(view, 40, seed=1))


@pytest.mark.parametrize("limit", ["int64-keys", "batch-of-50"])
def test_boundary_counts_batching_and_key_width(snapshot_view, limit, monkeypatch):
    snapshot, view = snapshot_view
    sets = _random_sets(view, 40, seed=2)
    expected = _reference(snapshot, view, sets)
    if limit == "int64-keys":
        monkeypatch.setattr(csr, "_INT32_KEYS_BELOW", 0)
    else:
        monkeypatch.setattr(csr, "_BOUNDARY_BATCH_MEMBERS", 50)
    assert view.boundary_counts(sets).tolist() == expected
