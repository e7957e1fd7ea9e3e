import numpy as np
import pytest

from boundary_vicinity import (
    CommunityLabeling,
    boundary_edges,
    build_graph,
    community_mask,
    connect_communities,
    detect_communities,
    erdos_renyi,
)
from conftest import edge_tuples


def labeling_of(labels):
    return CommunityLabeling(
        labels=tuple(labels), modularity=0.0, num_communities=max(labels) + 1
    )


def test_single_cross_edge(two_triangles_bridged):
    bset = boundary_edges(two_triangles_bridged, labeling_of([0, 0, 0, 1, 1, 1]))
    assert bset.boundary_edges == ((2, 3),)
    assert bset.boundary_nodes == (2, 3)
    assert bset.home_community == {2: 0, 3: 1}


def test_one_community_no_boundary(karate):
    bset = boundary_edges(karate, labeling_of([0] * karate.num_nodes))
    assert bset.boundary_edges == ()
    assert bset.boundary_nodes == ()


def test_planted_er_stitching_fixed_seed():
    parts = [erdos_renyi(100, 0.06, seed=s) for s in (11, 12, 13)]
    planted = connect_communities(parts, k=26, seed=0)
    bset = boundary_edges(planted.graph, labeling_of(planted.planted_labels))
    assert len(bset.boundary_edges) == 26
    assert len(bset.boundary_nodes) <= 52
    assert len(bset.boundary_nodes) == 49  # frozen: fixed-seed construction


def test_boundary_nodes_are_edge_endpoints(karate):
    labeling = detect_communities(karate, seed=0)
    bset = boundary_edges(karate, labeling)
    endpoints = {v for e in bset.boundary_edges for v in e}
    assert set(bset.boundary_nodes) == endpoints
    assert list(bset.boundary_nodes) == sorted(bset.boundary_nodes)
    for v in bset.boundary_nodes:
        assert bset.home_community[v] == labeling.labels[v]


def test_label_permutation_invariance(karate):
    labeling = detect_communities(karate, seed=1)
    k = labeling.num_communities
    perm = list(np.random.default_rng(0).permutation(k))
    shuffled = labeling_of([perm[c] for c in labeling.labels])
    original = boundary_edges(karate, labeling)
    permuted = boundary_edges(karate, shuffled)
    assert original.boundary_edges == permuted.boundary_edges
    assert original.boundary_nodes == permuted.boundary_nodes


def test_masks_plus_boundary_partition_edges(karate):
    labeling = detect_communities(karate, seed=3)
    bset = boundary_edges(karate, labeling)
    mask_edges = set(edge_tuples(community_mask(karate, labeling)))
    cross = set(bset.boundary_edges)
    assert mask_edges.isdisjoint(cross)
    assert {tuple(sorted(e)) for e in mask_edges | cross} == set(edge_tuples(karate))


def test_labeling_length_mismatch_rejected():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        boundary_edges(g, labeling_of([0, 1]))
