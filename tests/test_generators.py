import hashlib
import tracemalloc

import numpy as np
import pytest

from boundary_vicinity import (
    boundary_edges,
    build_graph,
    connect_communities,
    connected_components,
    erdos_renyi,
    preferential_attachment,
)
from conftest import edge_tuples, neighbors


def test_er_p_one_is_complete():
    g = erdos_renyi(4, 1.0, seed=0)
    assert g.num_edges == 6


def test_er_p_zero_is_edgeless():
    g = erdos_renyi(100, 0.0, seed=0)
    assert g.num_edges == 0


def test_er_edge_count_matches_binomial_moments():
    # mean M over many seeds should sit well inside 3 sigma of one draw
    counts = [erdos_renyi(100, 0.05, seed=s).num_edges for s in range(1000)]
    mean = np.mean(counts)
    sigma = np.sqrt(4950 * 0.05 * 0.95)
    assert abs(mean - 247.5) <= 3 * sigma


@pytest.mark.parametrize("n,p,seed", [
    (1, 0.5, 0), (2, 1.0, 3), (100, 0.06, 5), (300, 0.02, 0), (50, 0.0, 1), (50, 1.0, 2),
])
def test_er_matches_pair_loop_definition(n, p, seed):
    # one uniform draw per pair (u, v), u < v, taken in row-major order
    draws = iter(np.random.default_rng(seed).random(n * (n - 1) // 2))
    expected = [(u, v) for u in range(n) for v in range(u + 1, n) if next(draws) < p]
    g = erdos_renyi(n, p, seed=seed)
    assert edge_tuples(g) == tuple(expected)
    assert all(np.array_equal(a, b) for a, b in zip(g.csr, build_graph(n, expected).csr))


def test_er_deterministic():
    assert np.array_equal(erdos_renyi(50, 0.1, seed=7).edges, erdos_renyi(50, 0.1, seed=7).edges)


def test_er_memory_grows_with_edges_not_pairs():
    # 12.5M pairs: holding them all at once took about 300 MB
    tracemalloc.start()
    try:
        g = erdos_renyi(5000, 0.001, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 0
    assert peak < 32 * 2**20


def test_er_validates_inputs():
    with pytest.raises(ValueError):
        erdos_renyi(0, 0.5)
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5)


def test_pa_m1_is_tree():
    g = preferential_attachment(5, 1, seed=0)
    assert g.num_edges == 4
    assert len(connected_components(g).components) == 1


def test_pa_edge_count():
    g = preferential_attachment(100, 2, seed=0)
    assert g.num_edges == 3 + 97 * 2  # seed triangle plus 2 per arrival


def test_pa_simple_graph_invariants():
    for seed in range(5):
        g = preferential_attachment(60, 3, seed=seed)
        assert len(set(edge_tuples(g))) == g.num_edges
        assert all(u != v for u, v in edge_tuples(g))


def test_pa_deterministic():
    a = preferential_attachment(80, 2, seed=3)
    b = preferential_attachment(80, 2, seed=3)
    assert np.array_equal(a.edges, b.edges)


def test_pa_validates_inputs():
    with pytest.raises(ValueError):
        preferential_attachment(3, 3, seed=0)
    with pytest.raises(ValueError):
        preferential_attachment(5, 0, seed=0)


def test_pa_hubs_emerge():
    g = preferential_attachment(200, 2, seed=1)
    assert np.diff(g.csr[0]).max() >= 15  # heavy tail, far above the mean of ~4


def test_stitch_two_triangles_minimal():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    planted = connect_communities([tri, tri], k=1, seed=0)
    assert planted.graph.num_nodes == 6
    assert planted.graph.num_edges == 7
    assert len(planted.planted_boundary) == 2
    assert len(connected_components(planted.graph).components) == 1


def test_stitch_three_er_parts():
    parts = [erdos_renyi(100, 0.06, seed=s) for s in (11, 12, 13)]
    for part in parts:
        assert len(connected_components(part).components) == 1
    planted = connect_communities(parts, k=26, seed=0)
    g = planted.graph
    assert g.num_nodes == 300
    assert len(connected_components(g).components) == 1
    assert g.num_edges == sum(p.num_edges for p in parts) + 26
    # frozen from the first verified run of this fixed-seed construction
    assert len(planted.planted_boundary) <= 52


def test_stitch_boundary_matches_planted_labels():
    parts = [erdos_renyi(60, 0.1, seed=s) for s in (1, 2, 3)]
    planted = connect_communities(parts, k=9, seed=4)
    bset = boundary_edges(planted.graph, planted.planted_labels)
    assert len(bset.boundary_edges) == 9
    assert np.array_equal(bset.boundary_nodes, planted.planted_boundary)
    # every boundary node has at least one edge into a different part
    for b in bset.boundary_nodes:
        labels = planted.planted_labels
        assert any(labels[w] != labels[b] for w in neighbors(planted.graph, b))


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("parts,k,seed,edges_sha,boundary_sha", [
    # a cross key drawn twice, then redrawn
    pytest.param(2, 6, 1, "d616ed13da1e7be2c08b603a666bb9820489d121463f2a4b1530c98516bec16f",
                 "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61", id="repeat-1"),
    pytest.param(2, 6, 2, "6c62ee1ed8743e47e1f2656990fb3d72cf6632510dee09b091c1308f4ddec6c4",
                 "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61", id="repeat-2"),
    pytest.param(2, 6, 3, "d33b0d60b7d5f87c3898c16c2e5a664d9c6cb0f11f57ce24fa814e01a7758073",
                 "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61", id="repeat-3"),
    pytest.param(2, 6, 4, "23da6cb8f8adc04111922d199bc2486a19d7880f55a61fc9c91aac90b0147ec6",
                 "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61", id="repeat-4"),
    # a node finds no new partner in 100 tries: the selection is dropped and drawn again
    pytest.param(2, 6, 5, "1ab37d3bfdd7880e3f7b1a8bacdf61076025a418043df12e4976a90c8fe448be",
                 "f190072c5052f4f440d4a607c25f5bced487c420806c9aab4ca5b0653e72da61", id="dropped"),
    # a disconnected stitching, drawn again
    pytest.param(3, 2, 5, "5cc98aac602d4a57f5a0fcbd2dec076f3d7afac5e51c6b70907d3e2b8849a030",
                 "acec11f67ad6cadfb841023ab4175fd62d8cabe9bc516b3891673b120896a2a1", id="split-5"),
    pytest.param(3, 2, 6, "094420adbaea6ced797f11ab1e90010e2867a783db07757458800dc152754b1a",
                 "72307e420b5460c03a1c167060ed336407c26ea74aabf8fab76dd8e9dbe8cbe4", id="split-6"),
    pytest.param(3, 2, 7, "73ddd2b9754073826b14b12224ba83ed755f20d66758d1dbab605661ba1ba72d",
                 "975dd942182a3763e34dc0e25be5e73fe01a546c53f79ff76ffdac1d9d8f4b31", id="split-7"),
])
def test_stitch_draws_are_pinned(parts, k, seed, edges_sha, boundary_sha):
    # each case reaches one exit of the retry loops; a moved draw changes the hashes
    planted = connect_communities([build_graph(3, [(0, 1), (1, 2), (0, 2)])] * parts, k, seed=seed)
    assert sha256(planted.graph.edges) == edges_sha
    assert sha256(planted.planted_boundary) == boundary_sha
    assert planted.planted_boundary.dtype == np.int64
    assert not planted.planted_boundary.flags.writeable


def test_stitch_deterministic():
    parts = [erdos_renyi(40, 0.15, seed=s) for s in (5, 6)]
    a = connect_communities(parts, k=4, seed=9)
    b = connect_communities(parts, k=4, seed=9)
    assert np.array_equal(a.graph.edges, b.graph.edges)
    assert np.array_equal(a.planted_boundary, b.planted_boundary)


def test_stitch_validates_inputs():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        connect_communities([tri], k=1, seed=0)
    with pytest.raises(ValueError):
        connect_communities([tri, disconnected], k=1, seed=0)
    with pytest.raises(ValueError):
        connect_communities([tri, tri, tri], k=1, seed=0)  # k < parts - 1
    with pytest.raises(ValueError):
        connect_communities([tri, build_graph(0, [])], k=1, seed=0)
    # two one-node parts have one cross edge, so a second linker never finds a partner
    one = build_graph(1, [])
    with pytest.raises(ValueError, match="failed to build a connected stitching in 100 tries"):
        connect_communities([one, one], k=2, seed=0)
