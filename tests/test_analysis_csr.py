"""Parity suite for the CSR analysis plane.

The contract under test (see ``docs/architecture.md``): every analysis
has one implementation, on a :class:`CSRView` — built zero-copy from the
array backend, one-shot from the dict oracle
(:mod:`tests.oracles.dict_backend`), or converted from a snapshot — and
returns results *identical* to the set-based reference in
:mod:`tests.oracles.analysis`, whichever way the view was built and on
either topology backend.  Degree, isolated and component censuses are
checked against the :class:`Snapshot` methods directly.  For the
expansion probes "identical" means the exact probe minimum, the exact
witness set, and the exact ``candidates_checked`` count; exhaustive
enumeration backs the probes on small graphs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.components import (
    ComponentSummary,
    component_summary,
    giant_verts,
)
from repro.analysis.degrees import degree_histogram, degree_summary, max_degree
from repro.analysis.expansion import (
    _CSRProbe,
    adversarial_expansion_upper_bound,
    expansion_of_set,
    large_set_expansion_probe,
    probe_network_expansion,
    vertex_expansion_exact,
)
from repro.analysis.distances import (
    average_shortest_path_sample,
    bfs_distances,
    eccentricity,
    giant_component_diameter,
)
from repro.analysis.incremental import ProbeCache
from repro.analysis.isolated import count_isolated, isolated_fraction
from repro.analysis.temporal import snapshot_jaccard
from repro.analysis.spectral import cheeger_bounds, normalized_laplacian_lambda2
from repro.core.array_backend import ArraySlotBackend
from repro.core.csr import (
    as_view,
    candidate_key,
    candidate_key_array,
    csr_view_from_snapshot,
    mix64,
    mix64_array,
)
from repro.core.edge_policy import RAESPolicy, RegenerationPolicy
from repro.models import PDG, SDG, SDGR
from repro.models.streaming import StreamingNetwork
from repro.scenario import (
    DegreeStatsObserver,
    ExpansionObserver,
    IsolatedNodesObserver,
    Observer,
    ScenarioSpec,
    Simulation,
    simulate,
)
from tests.conftest import cycle_snapshot, path_snapshot, snapshot_from_edges
from tests.oracles import analysis as oracle
from tests.oracles.dict_backend import BACKENDS, DictBackend


def seeded_networks(backend: str):
    """The seeded graph menagerie the parity contract is asserted on."""
    sdg = SDG(n=90, d=2, seed=3, backend=BACKENDS[backend]())  # isolated nodes + ties
    sdg.run_rounds(90)
    sdgr = SDGR(n=110, d=6, seed=7, backend=BACKENDS[backend]())  # expander
    sdgr.run_rounds(110)
    pdg = PDG(n=70, d=3, seed=5, backend=BACKENDS[backend]())
    pdg.run_rounds(50)
    raes = StreamingNetwork(
        60, RAESPolicy(d=3, c=2), seed=11, backend=BACKENDS[backend]()
    )
    raes.run_rounds(60)
    return [("SDG", sdg), ("SDGR", sdgr), ("PDG", pdg), ("RAES", raes)]


def assert_probe_equal(a, b):
    assert a.min_ratio == b.min_ratio
    assert a.witness_size == b.witness_size
    assert a.witness == b.witness
    assert a.candidates_checked == b.candidates_checked


def census_graphs(backend: str):
    """``(name, snapshot, backend view)`` for each seeded network."""
    return [
        (name, net.snapshot(), net.state.csr_view(net.now))
        for name, net in seeded_networks(backend)
    ]


def reference_components(snapshot) -> ComponentSummary:
    """The component census read off ``Snapshot.connected_components``."""
    sizes = [len(c) for c in snapshot.connected_components()]
    return ComponentSummary(
        num_nodes=snapshot.num_nodes(),
        num_components=len(sizes),
        giant_size=sizes[0] if sizes else 0,
        second_size=sizes[1] if len(sizes) > 1 else 0,
        num_isolated=sum(1 for size in sizes if size == 1),
    )


def tied_giants(backend_cls, triangle: bool = False):
    """Two equal-size components whose storage rows invert their id order.

    Ids 0-3 die and ids 8-11 are born after them, so on the array backend
    ids 8-11 reuse the freed rows below those of ids 4-7.  A path is then
    built on {4, 5, 6} and a second path (or a triangle) on {8, 9, 10}.
    """
    state = backend_cls()
    for u in range(8):
        state.add_node(u, 0.0, 1)
    for u in range(4):
        state.remove_node(u, 1.0)
    for u in range(8, 12):
        state.add_node(u, 1.0, 1)
    edges = [(4, 5), (5, 6), (8, 9), (9, 10)]
    if triangle:
        edges.append((10, 8))
    for u, v in edges:
        state.assign_slot(u, 0, v)
    return state


class TestHashing:
    def test_scalar_and_vector_mix_agree(self):
        ids = np.array([0, 1, 7, 123456, 2**40], dtype=np.int64)
        vector = mix64_array(ids)
        for node_id, mixed in zip(ids.tolist(), vector.tolist()):
            assert mix64(node_id) == mixed

    def test_candidate_keys_agree(self):
        sizes = np.array([1, 5, 400], dtype=np.uint64)
        xors = mix64_array(np.array([9, 10, 11]))
        keys = candidate_key_array(sizes, xors)
        for size, xor, key in zip(
            sizes.tolist(), xors.tolist(), keys.tolist()
        ):
            assert candidate_key(int(size), int(xor)) == key

    def test_key_is_order_independent(self):
        xor_ab = mix64(3) ^ mix64(17)
        xor_ba = mix64(17) ^ mix64(3)
        assert candidate_key(2, xor_ab) == candidate_key(2, xor_ba)


class TestViewConstruction:
    def test_backends_export_identical_views(self):
        views = []
        for backend in ("dict", "array"):
            net = SDGR(n=60, d=4, seed=2, backend=BACKENDS[backend]())
            net.run_rounds(60)
            views.append(net.state.csr_view(net.now))
        a, b = views
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.degrees, b.degrees)
        assert a.num_edges() == b.num_edges()
        assert np.array_equal(
            a.birth[a.alive_verts], b.birth[b.alive_verts]
        )

    def test_array_view_is_zero_copy(self):
        net = SDGR(n=40, d=3, seed=1, backend="array")
        net.run_rounds(40)
        state = net.state
        view = state.csr_view(net.now)
        indptr, indices = state.adjacency_csr()
        assert view.indptr is indptr
        assert view.indices is indices
        assert view.vert_ids is state._id_of
        assert view.birth is state._birth

    def test_snapshot_conversion_matches_backend_view(self, backend_cls):
        net = SDG(n=50, d=3, seed=4, backend=backend_cls())
        net.run_rounds(50)
        direct = net.state.csr_view(net.now)
        converted = csr_view_from_snapshot(net.snapshot())
        assert converted.time == direct.time
        assert np.array_equal(converted.ids, direct.ids)
        assert np.array_equal(converted.degrees, direct.degrees)
        assert converted.num_edges() == direct.num_edges()

    def test_view_of_empty_graph(self):
        view = DictBackend().csr_view(0.0)
        assert view.n == 0
        assert view.num_edges() == 0
        assert degree_summary(view).num_nodes == 0

    def test_vert_id_round_trip(self, backend_cls):
        net = SDGR(n=30, d=2, seed=9, backend=backend_cls())
        net.run_rounds(30)
        view = net.state.csr_view(net.now)
        for node_id in view.ids.tolist():
            assert int(view.vert_ids[view.vert_of(node_id)]) == node_id


class TestCensusParity:
    """Censuses on views equal the Snapshot methods, however the view
    was built (backend export, or the snapshot's own conversion)."""

    @pytest.fixture(params=["dict", "array"])
    def graphs(self, request):
        return census_graphs(request.param)

    def test_degree_summary(self, graphs):
        for name, snap, view in graphs:
            degrees = np.array(list(snap.degrees().values()), dtype=float)
            for graph in (view, snap):
                summary = degree_summary(graph)
                assert summary.num_nodes == snap.num_nodes(), name
                assert summary.num_edges == snap.num_edges(), name
                assert summary.min_degree == degrees.min(), name
                assert summary.max_degree == degrees.max(), name
                assert summary.mean_degree == pytest.approx(degrees.mean())
                assert summary.std_degree == pytest.approx(
                    degrees.std(ddof=1)
                )

    def test_max_degree_and_histogram(self, graphs):
        for name, snap, view in graphs:
            degrees = list(snap.degrees().values())
            histogram = dict(sorted(Counter(degrees).items()))
            for graph in (view, snap):
                assert max_degree(graph) == max(degrees), name
                assert degree_histogram(graph) == histogram, name

    def test_isolated_census(self, graphs):
        for name, snap, view in graphs:
            isolated = len(snap.isolated_nodes())
            for graph in (view, snap):
                assert count_isolated(graph) == isolated, name
                assert isolated_fraction(graph) == isolated / snap.num_nodes()

    def test_component_census(self, graphs):
        for name, snap, view in graphs:
            reference = reference_components(snap)
            assert component_summary(view) == reference, name
            assert component_summary(snap) == reference, name

    def test_component_census_on_crafted_graphs(self):
        # Long path (stresses pointer-jumping convergence), disconnected
        # pieces, and isolated nodes.
        crafted = [
            path_snapshot(200),
            cycle_snapshot(64),
            snapshot_from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5)]),
            snapshot_from_edges(5, []),
        ]
        for snap in crafted:
            view = csr_view_from_snapshot(snap)
            assert component_summary(view) == reference_components(snap)


class TestGiantRule:
    """One giant-component rule: among equal-size components the one
    holding the smallest node id wins, never the lowest storage row."""

    def test_tie_breaks_on_node_id_not_row(self, backend_cls):
        state = tied_giants(backend_cls)
        view = state.csr_view(1.0)
        if backend_cls is ArraySlotBackend:  # rows really invert the id order
            assert view.vert_of(8) < view.vert_of(4)
        for graph in (view, state.snapshot(1.0).csr_view()):
            assert graph.vert_ids[giant_verts(graph)].tolist() == [4, 5, 6]

    def test_distances_and_spectra_share_the_giant(self, backend_cls):
        state = tied_giants(backend_cls, triangle=True)
        view, snap = state.csr_view(1.0), state.snapshot(1.0)
        assert oracle.giant_ids(snap) == [4, 5, 6]
        # The path P3 has normalized-Laplacian spectrum {0, 1, 2}; the
        # triangle's λ₂ is 1.5, so the picked component is visible.
        assert normalized_laplacian_lambda2(view) == pytest.approx(1.0)
        assert normalized_laplacian_lambda2(view) == pytest.approx(
            oracle.normalized_laplacian_lambda2(snap), abs=1e-12
        )
        assert giant_component_diameter(view) == 2
        assert average_shortest_path_sample(view, seed=0) == pytest.approx(
            oracle.average_shortest_path_sample(snap, seed=0)
        )


class TestSpectralParity:
    """λ₂ on the CSR view equals the set-based reference.

    The view extracts the giant component in the same ascending-id row
    order the reference uses, so the assembled Laplacians are the same
    matrix and the eigenvalues agree to solver roundoff.
    """

    @pytest.fixture(params=["dict", "array"])
    def graphs(self, request):
        return census_graphs(request.param)

    def test_lambda2_parity(self, graphs):
        for name, snap, view in graphs:
            ref = oracle.normalized_laplacian_lambda2(snap)
            fast = normalized_laplacian_lambda2(view)
            assert fast == pytest.approx(ref, abs=1e-9), name

    def test_lambda2_parity_from_snapshot_view(self, graphs):
        for name, snap, _ in graphs:
            ref = oracle.normalized_laplacian_lambda2(snap)
            for graph in (csr_view_from_snapshot(snap), snap):
                fast = normalized_laplacian_lambda2(graph)
                assert fast == pytest.approx(ref, abs=1e-9), name

    def test_cheeger_parity(self, graphs):
        for name, snap, view in graphs:
            ref, fast = oracle.cheeger_bounds(snap), cheeger_bounds(view)
            assert fast.lambda2 == pytest.approx(ref.lambda2, abs=1e-9), name
            assert fast.conductance_lower == pytest.approx(
                ref.conductance_lower, abs=1e-9
            )
            assert fast.conductance_upper == pytest.approx(
                ref.conductance_upper, abs=1e-9
            )
            assert fast.vertex_expansion_lower == pytest.approx(
                ref.vertex_expansion_lower, abs=1e-9
            )

    def test_giant_restriction_on_disconnected_graph(self):
        snap = snapshot_from_edges(
            8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (5, 6)]
        )
        view = csr_view_from_snapshot(snap)
        ref = oracle.normalized_laplacian_lambda2(snap, on_giant=True)
        fast = normalized_laplacian_lambda2(view, on_giant=True)
        assert fast == pytest.approx(ref, abs=1e-12)
        assert fast > 0.0

    def test_disconnected_without_giant_restriction_is_zero(self):
        snap = snapshot_from_edges(
            8, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (4, 5), (5, 6), (6, 7)]
        )
        view = csr_view_from_snapshot(snap)
        assert normalized_laplacian_lambda2(
            view, on_giant=False
        ) == pytest.approx(0.0, abs=1e-9)

    def test_small_component_rejected(self):
        from repro.errors import AnalysisError

        view = csr_view_from_snapshot(snapshot_from_edges(2, [(0, 1)]))
        with pytest.raises(AnalysisError):
            normalized_laplacian_lambda2(view)


class TestProbeParity:
    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_adversarial_probe_identical(self, backend):
        for name, net in seeded_networks(backend):
            snap = net.snapshot()
            reference = oracle.adversarial_expansion_upper_bound(snap, seed=1)
            for graph in (net.state.csr_view(net.now), snap.csr_view(), snap):
                assert_probe_equal(
                    adversarial_expansion_upper_bound(graph, seed=1), reference
                )

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_large_set_probe_identical(self, backend):
        for name, net in seeded_networks(backend):
            snap = net.snapshot()
            n = snap.num_nodes()
            reference = oracle.large_set_expansion_probe(
                snap, min_size=4, max_size=n // 2, seed=2
            )
            for graph in (net.state.csr_view(net.now), snap):
                fast = large_set_expansion_probe(
                    graph, min_size=4, max_size=n // 2, seed=2
                )
                assert_probe_equal(fast, reference)

    def test_probes_identical_across_backends(self):
        probes = []
        for backend in ("dict", "array"):
            net = SDG(n=80, d=2, seed=6, backend=BACKENDS[backend]())
            net.run_rounds(80)
            view = net.state.csr_view(net.now)
            probes.append(
                (
                    adversarial_expansion_upper_bound(view, seed=3),
                    large_set_expansion_probe(view, min_size=5, seed=4),
                )
            )
        assert_probe_equal(probes[0][0], probes[1][0])
        assert_probe_equal(probes[0][1], probes[1][1])

    def test_probe_network_expansion_is_view_path(self, backend_cls):
        net = SDGR(n=70, d=5, seed=8, backend=backend_cls())
        net.run_rounds(70)
        assert_probe_equal(
            probe_network_expansion(net, seed=1),
            oracle.adversarial_expansion_upper_bound(net.snapshot(), seed=1),
        )

    def test_size_window_respected_on_view(self):
        snap = cycle_snapshot(20)
        probe = adversarial_expansion_upper_bound(
            csr_view_from_snapshot(snap), seed=4, min_size=3, max_size=5
        )
        assert 3 <= probe.witness_size <= 5
        assert snap.expansion_of(probe.witness) == pytest.approx(
            probe.min_ratio
        )

    def test_witness_ratio_is_real_on_view(self):
        net = SDG(n=60, d=3, seed=12, backend="array")
        net.run_rounds(60)
        view = net.state.csr_view(net.now)
        probe = adversarial_expansion_upper_bound(view, seed=5)
        assert expansion_of_set(view, probe.witness) == probe.min_ratio
        assert net.snapshot().expansion_of(probe.witness) == probe.min_ratio

    def test_duplicate_candidates_counted_once(self):
        # On a complete graph every BFS ball of radius 1 is the whole
        # vertex set and every closed neighbourhood coincides; dedupe
        # must collapse them in the probe exactly as in the reference.
        from tests.conftest import complete_snapshot

        snap = complete_snapshot(8)
        reference = oracle.adversarial_expansion_upper_bound(
            snap, seed=0, num_random_sets=16
        )
        fast = adversarial_expansion_upper_bound(
            csr_view_from_snapshot(snap), seed=0, num_random_sets=16
        )
        assert_probe_equal(fast, reference)
        # n singletons + 16 random sets at most, plus greedy chains —
        # far fewer than the undeduplicated portfolio would count.
        assert reference.candidates_checked <= 8 + 16 + 8 * 3

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_probes_bound_the_exhaustive_minimum(self, backend):
        # Small graphs where brute force is exact: both probes equal the
        # reference and never undercut the true h_out (every candidate
        # is a genuine set), and an isolated node is always found.
        for model, n, d, seed in ((SDG, 14, 2, 1), (SDGR, 16, 3, 4),
                                  (PDG, 12, 2, 6)):
            net = model(n=n, d=d, seed=seed, backend=BACKENDS[backend]())
            net.run_rounds(n)
            snap = net.snapshot()
            if snap.num_nodes() > 22:
                continue
            exact = vertex_expansion_exact(snap)
            view = net.state.csr_view(net.now)
            probe = adversarial_expansion_upper_bound(view, seed=3)
            assert_probe_equal(
                probe, oracle.adversarial_expansion_upper_bound(snap, seed=3)
            )
            assert probe.min_ratio >= exact.min_ratio
            if exact.min_ratio == 0.0:
                assert probe.min_ratio == 0.0
            low = max(1, snap.num_nodes() // 4)
            large = large_set_expansion_probe(view, min_size=low, seed=3)
            assert_probe_equal(
                large, oracle.large_set_expansion_probe(snap, low, seed=3)
            )
            assert large.min_ratio >= exact.min_ratio


class TestBallProperty:
    """Vectorized BFS balls equal set-based balls."""

    @staticmethod
    def _set_ball(snapshot, root: int, radius: int) -> frozenset[int]:
        ball = {root}
        frontier = {root}
        for _ in range(radius):
            shell = set()
            for u in frontier:
                shell.update(snapshot.adjacency[u])
            shell -= ball
            if not shell:
                break
            ball |= shell
            frontier = shell
        return frozenset(ball)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 50),
        root_rank=st.integers(0, 59),
        radius=st.integers(0, 5),
    )
    def test_ball_members_match_reference(self, seed, root_rank, radius):
        net = SDG(n=60, d=3, seed=seed, backend="array")
        net.run_rounds(60)
        snap = net.snapshot()
        view = net.state.csr_view(net.now)
        root = sorted(snap.nodes)[root_rank]
        probe = _CSRProbe(view, 1, view.n)
        members = probe._ball_members(view.vert_of(root), radius)
        assert frozenset(
            int(i) for i in view.vert_ids[members]
        ) == self._set_ball(snap, root, radius)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 50),
        d=st.integers(2, 6),
        max_size=st.integers(1, 40),
    )
    def test_ball_only_portfolio_identical(self, seed, d, max_size):
        """With greedy and random phases disabled, the portfolio is
        exactly the singleton/neighbourhood/ball family — the probes
        agree on it for arbitrary roots and max_size windows."""
        net = SDGR(n=48, d=d, seed=seed, backend="array")
        net.run_rounds(48)
        reference = oracle.adversarial_expansion_upper_bound(
            net.snapshot(),
            seed=0,
            num_random_sets=0,
            greedy_restarts=0,
            max_size=max_size,
        )
        fast = adversarial_expansion_upper_bound(
            net.state.csr_view(net.now),
            seed=0,
            num_random_sets=0,
            greedy_restarts=0,
            max_size=max_size,
        )
        assert_probe_equal(fast, reference)


class TestDistanceParity:
    """CSR mask-frontier BFS equals the set-based reference, ties included."""

    @pytest.fixture(params=["dict", "array"])
    def graphs(self, request):
        return census_graphs(request.param)

    def test_bfs_distances_and_eccentricity(self, graphs):
        for name, snap, view in graphs:
            for source in sorted(snap.nodes)[:5]:
                reference = oracle.bfs_distances(snap, source)
                assert bfs_distances(view, source) == reference, name
                assert bfs_distances(snap, source) == reference, name
                assert eccentricity(view, source) == oracle.eccentricity(
                    snap, source
                ), name

    def test_unknown_source_rejected_on_view(self):
        from repro.errors import AnalysisError

        view = csr_view_from_snapshot(path_snapshot(4))
        with pytest.raises(AnalysisError):
            bfs_distances(view, 99)

    def test_giant_component_diameter(self, graphs):
        for name, snap, view in graphs:
            assert giant_component_diameter(
                view, seed=2
            ) == oracle.giant_component_diameter(snap, seed=2), name
            # Double-sweep path (exact_limit below component size): same
            # RNG draws, same canonical far-node tie-break.
            assert giant_component_diameter(
                view, exact_limit=1, seed=4
            ) == oracle.giant_component_diameter(
                snap, exact_limit=1, seed=4
            ), name

    def test_average_shortest_path_sample(self, graphs):
        for name, snap, view in graphs:
            assert average_shortest_path_sample(
                view, seed=9
            ) == oracle.average_shortest_path_sample(snap, seed=9), name

    def test_diameter_on_crafted_graphs(self):
        for snap in (path_snapshot(9), cycle_snapshot(10),
                     snapshot_from_edges(7, [(0, 1), (1, 2), (2, 3), (5, 6)])):
            view = csr_view_from_snapshot(snap)
            assert giant_component_diameter(
                view
            ) == oracle.giant_component_diameter(snap)

    def test_snapshot_jaccard_mixed_paths(self, graphs):
        (_, snap_a, view_a), (_, snap_b, view_b) = graphs[:2]
        reference = oracle.snapshot_jaccard(snap_a, snap_b)
        assert snapshot_jaccard(snap_a, snap_b) == reference
        assert snapshot_jaccard(view_a, view_b) == reference
        assert snapshot_jaccard(snap_a, view_b) == reference
        assert snapshot_jaccard(view_a, snap_b) == reference
        assert snapshot_jaccard(view_a, view_a) == 1.0


class TestIncrementalParity:
    """ProbeCache replays are bit-identical to cold recomputes."""

    PARAMS = dict(num_random_sets=16, greedy_restarts=4, max_size=25)

    @pytest.mark.parametrize("backend", ["dict", "array"])
    def test_incremental_equals_cold_across_windows(self, backend):
        net = SDGR(n=200, d=4, seed=7, backend=BACKENDS[backend]())
        net.run_rounds(200)
        cache = ProbeCache(net.state, **self.PARAMS)
        replayed_any = False
        for _ in range(5):
            view = net.state.csr_view(net.now)
            incremental = cache.probe(view, seed=1)
            cold = adversarial_expansion_upper_bound(
                net.state.csr_view(net.now), seed=1, **self.PARAMS
            )
            assert_probe_equal(incremental, cold)
            replayed_any |= cache.last_stats["replayed"] > 0
            net.run_rounds(3)
        assert replayed_any  # the cache actually reused balls

    def test_zero_churn_window_is_full_replay(self):
        net = SDGR(n=150, d=4, seed=3, backend="array")
        net.run_rounds(150)
        cache = ProbeCache(net.state, **self.PARAMS)
        first = cache.probe(net.state.csr_view(net.now), seed=5)
        again = cache.probe(net.state.csr_view(net.now), seed=5)
        assert cache.last_stats["replayed"] == 150
        assert cache.last_stats["recomputed"] == 0
        assert_probe_equal(first, again)

    def test_changed_size_window_flushes(self):
        net = SDGR(n=100, d=4, seed=2, backend="array")
        net.run_rounds(100)
        cache = ProbeCache(net.state, num_random_sets=8, greedy_restarts=2)
        cache.probe(net.state.csr_view(net.now), seed=0)
        cache.max_size = 10  # narrower window: every trajectory changes
        probe = cache.probe(net.state.csr_view(net.now), seed=0)
        assert cache.last_stats["recomputed"] == 100
        cold = adversarial_expansion_upper_bound(
            net.state.csr_view(net.now),
            seed=0,
            num_random_sets=8,
            greedy_restarts=2,
            max_size=10,
        )
        assert_probe_equal(probe, cold)

    def test_incremental_observer_matches_cold_observer(self):
        def run(incremental):
            spec = ScenarioSpec(
                churn="streaming", policy="regen", n=120, d=4, horizon=30
            )
            observer = ExpansionObserver(
                every=5, seed=2, incremental=incremental, **self.PARAMS
            )
            Simulation(spec, observers=[observer], seed=5).run()
            return observer.result()

        assert run(True) == run(False)


class TestObserverSharing:
    def test_one_view_per_window(self):
        spec = ScenarioSpec(churn="streaming", policy="regen", n=40, d=4, horizon=20)
        sim = Simulation(
            spec,
            observers=[
                DegreeStatsObserver(every=5),
                IsolatedNodesObserver(every=5),
                ExpansionObserver(every=10, num_random_sets=16),
            ],
            seed=1,
        )
        builds = 0
        original = sim.network.state.csr_view

        def counting(time):
            nonlocal builds
            builds += 1
            return original(time)

        sim.network.state.csr_view = counting
        sim.run()
        # 4 cadence windows (rounds 5/10/15/20): one build each, shared
        # by every due observer.  The last window lands exactly on the
        # horizon, so the finish notification is skipped — no double
        # reading of the final state.
        assert builds == 4
        results = sim.results()
        assert len(results["degrees"]["series"]) == 4
        assert len(results["isolated"]["series"]) == 4
        assert len(results["expansion"]["series"]) == 2

    def test_view_observers_match_snapshot_analyses(self):
        spec = ScenarioSpec(churn="streaming", policy="none", n=60, d=2, horizon=60)
        sim = simulate(
            spec,
            seed=3,
            observers=[DegreeStatsObserver(), IsolatedNodesObserver()],
        )
        snap = sim.snapshot()
        results = sim.results()
        summary = degree_summary(snap)
        final = results["degrees"]["final"]
        assert final["min_degree"] == summary.min_degree
        assert final["max_degree"] == summary.max_degree
        assert final["mean_degree"] == pytest.approx(summary.mean_degree)
        assert results["isolated"]["final"]["isolated"] == len(
            snap.isolated_nodes()
        )

    def test_observer_freezes_a_snapshot_from_the_session(self, monkeypatch):
        class SnapshotEcho(Observer):
            name = "snapshot_echo"

            def __init__(self):
                super().__init__(every=4)
                self.snapshots = []

            def on_round(self, report):
                self.snapshots.append(self.simulation.snapshot())

            def on_finish(self):
                self.snapshots.append(self.simulation.snapshot())

        echo = SnapshotEcho()
        spec = ScenarioSpec(churn="streaming", policy="regen", n=30, d=3, horizon=8)
        sim = Simulation(spec, observers=[echo], seed=2)
        # The session itself builds no topology for an observer that
        # asks for no view.
        monkeypatch.setattr(sim, "csr_view", None)
        sim.run()
        # Cadence windows at rounds 4 and 8; round 8 is the horizon, so
        # on_finish is suppressed for this already-flushed observer.
        assert len(echo.snapshots) == 2
        assert echo.snapshots[1].time - echo.snapshots[0].time == 4
        assert all(s.num_nodes() == 30 for s in echo.snapshots)

    def test_no_builds_when_nobody_asks(self):
        spec = ScenarioSpec(churn="streaming", policy="regen", n=30, d=3, horizon=6)
        sim = Simulation(spec, observers=[], seed=2)
        sim.network.state.csr_view = None  # would raise if called
        sim.network.state.snapshot = None
        sim.run()

    def test_expansion_observer_params_round_trip(self):
        spec = ScenarioSpec(churn="streaming", policy="regen", n=40, d=4, horizon=40)
        sim = simulate(
            spec,
            seed=5,
            observers=[
                {
                    "name": "expansion",
                    "params": {"num_random_sets": 8, "max_size": 10, "seed": 1},
                }
            ],
        )
        series = sim.results()["expansion"]["series"]
        assert len(series) == 1
        reference = oracle.adversarial_expansion_upper_bound(
            sim.snapshot(), seed=1, num_random_sets=8, max_size=10
        )
        assert series[0]["min_ratio"] == reference.min_ratio


class TestSnapshotMemoization:
    def test_num_edges_and_degrees_cached(self):
        snap = cycle_snapshot(12)
        assert snap.num_edges() == 12
        assert snap.degrees() is snap.degrees()
        first = snap.num_edges()
        assert first == snap.num_edges() == 12

    def test_csr_view_cached(self):
        snap = cycle_snapshot(12)
        view = snap.csr_view()
        assert snap.csr_view() is view
        assert as_view(snap) is view
        assert as_view(view) is view
        assert view.num_edges() == snap.num_edges() == 12

    def test_cache_does_not_leak_into_equality_or_serialization(self):
        a = cycle_snapshot(10)
        b = cycle_snapshot(10)
        payload = a.to_dict()
        # populate caches on one side only
        a.num_edges(), a.degrees(), a.csr_view()
        assert a == b
        assert a.to_dict() == payload == b.to_dict()
        restored = type(a).from_dict(a.to_dict())
        assert restored == a
        assert restored.num_edges() == a.num_edges()
