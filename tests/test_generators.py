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
    degrees = sorted(g.degree(v) for v in range(200))
    assert degrees[-1] >= 15  # heavy tail, far above the mean of ~4


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
    assert set(bset.boundary_nodes) == set(planted.planted_boundary)
    # every boundary node has at least one edge into a different part
    for b in bset.boundary_nodes:
        labels = planted.planted_labels
        assert any(labels[w] != labels[b] for w in neighbors(planted.graph, b))


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
