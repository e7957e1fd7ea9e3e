"""Community detection tests, checked against partition enumeration and networkx."""

import itertools

import networkx as nx
import numpy as np
import pytest

from boundary_vicinity import (
    boundary_edges,
    build_graph,
    community_mask,
    detect_communities,
    erdos_renyi,
    modularity,
    preferential_attachment,
)


def all_partitions(items):
    """Every partition of ``items`` into nonempty blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in all_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1:]
        yield [[first]] + partial


def labels_from_blocks(blocks, n):
    labels = [0] * n
    for c, block in enumerate(blocks):
        for v in block:
            labels[v] = c
    return labels


def best_partition_bruteforce(g):
    """Independent oracle: maximize modularity over all node partitions."""
    best_q, best = -1.0, None
    for blocks in all_partitions(range(g.num_nodes)):
        q = modularity(g, labels_from_blocks(blocks, g.num_nodes))
        if q > best_q:
            best_q, best = q, blocks
    return best_q, best


def to_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_nodes))
    nxg.add_edges_from(g.edges)
    return nxg


def test_modularity_single_community_is_zero(karate):
    assert modularity(karate, [0] * karate.num_nodes) == pytest.approx(0.0, abs=1e-12)


def test_modularity_two_disjoint_triangles(two_triangles_disjoint):
    q = modularity(two_triangles_disjoint, [0, 0, 0, 1, 1, 1])
    assert q == pytest.approx(0.5, abs=1e-12)


def test_modularity_matches_networkx_on_reference_partition(karate):
    nxg = to_networkx(karate)
    communities = nx.community.louvain_communities(nxg, seed=0)
    labels = [0] * karate.num_nodes
    for c, nodes in enumerate(communities):
        for v in nodes:
            labels[v] = c
    ours = modularity(karate, labels)
    theirs = nx.community.modularity(nxg, communities)
    assert ours == pytest.approx(theirs, abs=1e-12)
    assert 0.40 <= ours <= 0.45  # reference Louvain partition scores ~0.41-0.44


def test_modularity_errors_on_edgeless():
    with pytest.raises(ValueError):
        modularity(build_graph(3, []), [0, 1, 2])


def test_modularity_range_on_random_labelings(karate):
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels = rng.integers(0, 4, size=karate.num_nodes)
        assert -0.5 <= modularity(karate, list(labels)) <= 1.0


def test_detect_recovers_two_disjoint_triangles(two_triangles_disjoint):
    oracle_q, _ = best_partition_bruteforce(two_triangles_disjoint)
    assert oracle_q == pytest.approx(0.5, abs=1e-12)
    labeling = detect_communities(two_triangles_disjoint, seed=0)
    assert labeling.num_communities == 2
    assert labeling.modularity == pytest.approx(oracle_q, abs=1e-12)
    assert labeling.labels[0] == labeling.labels[1] == labeling.labels[2]
    assert labeling.labels[3] == labeling.labels[4] == labeling.labels[5]


def test_detect_k5_single_community():
    k5 = build_graph(5, list(itertools.combinations(range(5), 2)))
    oracle_q, blocks = best_partition_bruteforce(k5)
    assert oracle_q == pytest.approx(0.0, abs=1e-12)
    assert len(blocks) == 1
    labeling = detect_communities(k5, seed=3)
    assert labeling.num_communities == 1
    assert labeling.modularity == pytest.approx(0.0, abs=1e-12)


def test_detect_karate_quality(karate):
    for seed in (0, 1, 2):
        labeling = detect_communities(karate, seed=seed)
        assert labeling.modularity >= 0.35


def test_detect_deterministic(karate):
    a = detect_communities(karate, seed=11)
    b = detect_communities(karate, seed=11)
    assert a.labels == b.labels
    assert a.modularity == b.modularity
    assert a.quality_trace == b.quality_trace


def test_detect_labels_dense_and_q_consistent(karate):
    labeling = detect_communities(karate, seed=4)
    assert set(labeling.labels) == set(range(labeling.num_communities))
    assert labeling.modularity == pytest.approx(
        modularity(karate, labeling.labels), abs=1e-12
    )


def test_detect_trace_nondecreasing(karate):
    labeling = detect_communities(karate, seed=9)
    trace = labeling.quality_trace
    assert labeling.passes == len(trace) >= 1
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_detect_accepts_disconnected(two_triangles_disjoint):
    labeling = detect_communities(two_triangles_disjoint, seed=0)
    assert labeling.num_communities == 2


@pytest.mark.parametrize("kind", ["er", "pa"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_communities_are_connected(kind, seed):
    """Louvain can strand pieces of a community; each piece gets its own label."""
    if kind == "er":
        g = erdos_renyi(300, 0.02, seed=seed)
    else:
        g = preferential_attachment(300, 2, seed=seed)
    labeling = detect_communities(g, seed=seed)
    nxg = to_networkx(g)
    for c in range(labeling.num_communities):
        members = [v for v in range(g.num_nodes) if labeling.labels[v] == c]
        assert nx.is_connected(nxg.subgraph(members)), (kind, seed, c)


def test_detect_errors_on_edgeless():
    with pytest.raises(ValueError):
        detect_communities(build_graph(4, []), seed=0)


def test_mask_excludes_cross_edge(two_triangles_bridged):
    labeling = detect_communities(two_triangles_bridged, seed=0)
    c_left = labeling.labels[0]
    mask, mapping = community_mask(two_triangles_bridged, labeling, c_left)
    assert mask.num_nodes == 3
    assert mask.num_edges == 3
    assert set(mapping) == {0, 1, 2}


def test_mask_whole_graph_single_community(karate):
    labeling = detect_communities(karate, seed=0)
    # force a single label to exercise the identity case
    from boundary_vicinity import CommunityLabeling

    single = CommunityLabeling(
        labels=(0,) * karate.num_nodes, modularity=0.0, num_communities=1
    )
    mask, mapping = community_mask(karate, single, 0)
    assert mask.num_edges == karate.num_edges
    assert mapping == {v: v for v in range(karate.num_nodes)}


def test_mask_cross_only_community_keeps_isolated_nodes():
    # star of cross edges: center labeled 0, leaves labeled 1
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    from boundary_vicinity import CommunityLabeling

    labeling = CommunityLabeling(
        labels=(0, 1, 1, 1), modularity=0.0, num_communities=2
    )
    mask, _ = community_mask(g, labeling, 1)
    assert mask.num_nodes == 3
    assert mask.num_edges == 0


def test_mask_unknown_community(karate):
    labeling = detect_communities(karate, seed=0)
    with pytest.raises(ValueError):
        community_mask(karate, labeling, labeling.num_communities)


def test_masks_and_boundary_partition_edge_set(karate):
    labeling = detect_communities(karate, seed=2)
    bset = boundary_edges(karate, labeling)
    mask_edges = 0
    for c in range(labeling.num_communities):
        mask, _ = community_mask(karate, labeling, c)
        mask_edges += mask.num_edges
    assert mask_edges + len(bset.boundary_edges) == karate.num_edges
