import itertools
from collections import deque

import numpy as np
import pytest

from boundary_vicinity import (
    betweenness_brandes,
    boundary_edges,
    build_graph,
    centrality,
    detect_communities,
    erdos_renyi,
    preferential_attachment,
    rank_overlap,
)
from conftest import neighbors, random_connected_graph
from reference import _bfs_counts, betweenness_bruteforce, top_k_nodes


def brandes_reference(g):
    """Brandes one source at a time: a queue BFS over ascending neighbours, then
    dependencies accumulated over the reversed BFS order."""
    scores = np.zeros(g.num_nodes)
    for s in range(g.num_nodes):
        dist = [-1] * g.num_nodes
        sigma = [0] * g.num_nodes
        preds = [[] for _ in range(g.num_nodes)]
        dist[s], sigma[s] = 0, 1
        order, queue = [], deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in neighbors(g, u):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = [0.0] * g.num_nodes
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                scores[w] += delta[w]
    return scores / 2.0


def grid_graph(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return build_graph(rows * cols, right + down)


@pytest.fixture(scope="module")
def exactness_cases(karate):
    """Graphs with their per-source reference betweenness."""
    graphs = {"karate": karate, "grid20x20": grid_graph(20, 20),
              "edgeless": build_graph(7, [])}
    for seed in range(5):
        graphs[f"er60-{seed}"] = erdos_renyi(60, 0.04, seed=seed)  # isolated nodes
    for seed in range(2):
        graphs[f"pa300-{seed}"] = preferential_attachment(300, 2, seed=seed)
    # with every source in one block, a level holds more than 2^16 nodes
    graphs["pa400-m3"] = preferential_attachment(400, 3, seed=0)
    return {name: (g, brandes_reference(g)) for name, g in graphs.items()}


def sources_per_block(g):
    return centrality._BLOCK_ENTRIES // (g.num_nodes + 2 * g.num_edges)


def summed_level_sizes(g):
    """Nodes at each BFS depth, summed over all sources."""
    sizes = np.zeros(g.num_nodes, dtype=np.int64)
    for s in range(g.num_nodes):
        dist = np.array(_bfs_counts(g, s)[1])
        sizes += np.bincount(dist[dist >= 0], minlength=g.num_nodes)
    return sizes


def test_brandes_bit_identical_to_per_source_loop(exactness_cases):
    for name, (g, expected) in exactness_cases.items():
        assert np.array_equal(betweenness_brandes(g), expected), name
    # the default blocks hold whole small graphs and cut larger ones short
    blocks = {name: sources_per_block(g) for name, (g, _) in exactness_cases.items()}
    assert blocks["karate"] > 34
    assert 1 < blocks["grid20x20"] < 400 and 400 % blocks["grid20x20"] != 0
    assert 1 < blocks["pa300-0"] < 300 and 300 % blocks["pa300-0"] != 0


@pytest.mark.parametrize("block", [1, 7, 64, 400])
def test_brandes_does_not_depend_on_block_size(exactness_cases, monkeypatch, block):
    for name, (g, expected) in exactness_cases.items():
        monkeypatch.setattr(centrality, "_BLOCK_ENTRIES",
                            block * (g.num_nodes + 2 * g.num_edges))
        assert sources_per_block(g) == block
        assert np.array_equal(betweenness_brandes(g), expected), (name, block)


def test_block_sweep_runs_both_child_sorts(exactness_cases):
    """A level of at most 2^16 nodes is sorted on a 16-bit key, a wider one on
    int64: the default blocks keep every level narrow, and block 400 of the
    sweep puts all of pa400-m3 in one block with a wider level."""
    for name, (g, _) in exactness_cases.items():
        assert min(sources_per_block(g), g.num_nodes) * g.num_nodes <= 1 << 16, name
    g, _ = exactness_cases["pa400-m3"]
    assert g.num_nodes <= 400 and summed_level_sizes(g).max() > 1 << 16


def test_path_graph_middle_node():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert betweenness_brandes(g) == pytest.approx([0.0, 1.0, 0.0])
    assert betweenness_bruteforce(g) == pytest.approx([0.0, 1.0, 0.0])


def test_star_center():
    g = build_graph(6, [(0, i) for i in range(1, 6)])
    assert betweenness_brandes(g)[0] == pytest.approx(10.0)  # C(5,2) pairs
    assert betweenness_bruteforce(g)[0] == pytest.approx(10.0)
    assert betweenness_brandes(g)[1:] == pytest.approx([0.0] * 5)


def test_complete_graph_all_zero():
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert betweenness_brandes(k4) == pytest.approx([0.0] * 4)
    assert betweenness_bruteforce(k4) == pytest.approx([0.0] * 4)


def test_cycle_c4_split_geodesics():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert betweenness_brandes(c4) == pytest.approx([0.5] * 4)
    assert betweenness_bruteforce(c4) == pytest.approx([0.5] * 4)


def test_disconnected_pairs_contribute_nothing():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    assert betweenness_brandes(g) == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0])
    assert betweenness_bruteforce(g) == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0])


def test_leaves_score_zero(karate):
    values = betweenness_brandes(karate)
    degrees = np.diff(karate.csr[0])
    for v in range(karate.num_nodes):
        if degrees[v] == 1:
            assert values[v] == 0.0


def test_isomorphism_invariance():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng)
    perm = list(rng.permutation(g.num_nodes))
    relabeled = build_graph(
        g.num_nodes, [(perm[u], perm[v]) for u, v in g.edges.tolist()]
    )
    original = betweenness_brandes(g)
    mapped = betweenness_brandes(relabeled)
    for v in range(g.num_nodes):
        assert mapped[perm[v]] == pytest.approx(original[v], abs=1e-12)


def test_brandes_equals_bruteforce_on_random_sample():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = random_connected_graph(rng, max_nodes=8)
        np.testing.assert_allclose(
            betweenness_brandes(g), betweenness_bruteforce(g), atol=1e-9
        )


def test_brandes_equals_bruteforce_on_karate(karate):
    np.testing.assert_allclose(
        betweenness_brandes(karate), betweenness_bruteforce(karate), atol=1e-9
    )


def test_bruteforce_guard_rail():
    g = build_graph(201, [(i, i + 1) for i in range(200)])
    with pytest.raises(ValueError):
        betweenness_bruteforce(g)


def test_boundary_nodes_dominate_bridge_graph(two_triangles_bridged):
    labeling = detect_communities(two_triangles_bridged, seed=0)
    bset = boundary_edges(two_triangles_bridged, labeling.labels)
    values = betweenness_brandes(two_triangles_bridged)
    boundary = set(bset.boundary_nodes)
    assert boundary == {2, 3}
    floor = min(values[v] for v in boundary)
    for v in range(6):
        if v not in boundary:
            assert values[v] < floor


def test_overlap_identical_rankings():
    assert rank_overlap([3.0, 2.0, 1.0], [30.0, 20.0, 10.0], [1, 2, 3]) == (1.0, 1.0, 1.0)


def test_overlap_disjoint_top2():
    assert rank_overlap([4, 3, 1, 1], [1, 1, 4, 3], [2]) == (0.0,)


def test_overlap_order_within_topk_is_ignored():
    assert rank_overlap([4, 3, 2, 1], [3, 4, 1, 2], [2]) == (1.0,)


def test_overlap_full_k_is_one():
    rng = np.random.default_rng(0)
    a, b = rng.random(10), rng.random(10)
    assert rank_overlap(a, b, [10]) == (1.0,)


def test_overlap_symmetric_and_monotone_invariant():
    rng = np.random.default_rng(1)
    a, b = rng.random(20), rng.random(20)
    ks = [1, 3, 5, 10, 20]
    forward = rank_overlap(a, b, ks)
    backward = rank_overlap(b, a, ks)
    squashed = rank_overlap(np.exp(2 * a), b ** 3 + 7, ks)
    assert forward == backward
    assert forward == squashed


def test_overlap_rejects_bad_k():
    with pytest.raises(ValueError):
        rank_overlap([1, 2], [2, 1], [0])
    with pytest.raises(ValueError):
        rank_overlap([1, 2], [2, 1], [3])
    with pytest.raises(ValueError):
        rank_overlap([1, 2, 3], [2, 1], [1])


@pytest.mark.parametrize("seed", range(5))
def test_overlap_equals_per_k_top_k_sets(seed):
    """Ranking each vector once gives the per-k top_k_nodes set intersection."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 120))
    # few distinct values, so both vectors are full of ties
    a = rng.integers(0, 6, size=n).astype(float)
    b = rng.integers(0, 4, size=n) * 0.5
    ks = list(range(1, n + 1))
    proportions = rank_overlap(a.tolist(), b.tolist(), ks)
    for k, proportion in zip(ks, proportions):
        shared = set(top_k_nodes(a, k)) & set(top_k_nodes(b, k))
        assert proportion == len(shared) / k
    picked = [int(k) for k in rng.integers(1, n + 1, size=4)]
    assert rank_overlap(a, b, picked) == tuple(proportions[k - 1] for k in picked)


def test_top_k_tie_break_by_id():
    assert top_k_nodes([1.0, 2.0, 2.0, 0.5], 2) == [1, 2]
    assert top_k_nodes([1.0, 1.0, 1.0], 2) == [0, 1]
