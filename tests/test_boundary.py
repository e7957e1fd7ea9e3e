import numpy as np
import pytest

from boundary_vicinity import (
    boundary_edges,
    build_graph,
    community_mask,
    connect_communities,
    detect_communities,
    erdos_renyi,
)
from conftest import edge_tuples


def test_single_cross_edge(two_triangles_bridged):
    bset = boundary_edges(two_triangles_bridged, np.array([0, 0, 0, 1, 1, 1]))
    assert bset.boundary_edges.tolist() == [[2, 3]]
    assert bset.boundary_nodes.tolist() == [2, 3]
    assert bset.boundary_edges.dtype == bset.boundary_nodes.dtype == np.int64
    assert not bset.boundary_edges.flags.writeable
    assert not bset.boundary_nodes.flags.writeable


def test_one_community_no_boundary(karate):
    bset = boundary_edges(karate, np.zeros(karate.num_nodes, dtype=np.int64))
    assert bset.boundary_edges.shape == (0, 2)
    assert bset.boundary_nodes.shape == (0,)


def test_planted_er_stitching_fixed_seed():
    parts = [erdos_renyi(100, 0.06, seed=s) for s in (11, 12, 13)]
    planted = connect_communities(parts, k=26, seed=0)
    bset = boundary_edges(planted.graph, planted.planted_labels)
    assert len(bset.boundary_edges) == 26
    assert len(bset.boundary_nodes) <= 52
    assert len(bset.boundary_nodes) == 49  # frozen: fixed-seed construction


def test_boundary_nodes_are_edge_endpoints(karate):
    labels = detect_communities(karate, seed=0).labels
    bset = boundary_edges(karate, labels)
    endpoints = {v for e in bset.boundary_edges.tolist() for v in e}
    assert set(bset.boundary_nodes.tolist()) == endpoints
    assert bset.boundary_nodes.tolist() == sorted(endpoints)


def test_label_permutation_invariance(karate):
    labeling = detect_communities(karate, seed=1)
    k = labeling.num_communities
    perm = list(np.random.default_rng(0).permutation(k))
    shuffled = np.array([perm[c] for c in labeling.labels])
    original = boundary_edges(karate, labeling.labels)
    permuted = boundary_edges(karate, shuffled)
    assert np.array_equal(original.boundary_edges, permuted.boundary_edges)
    assert np.array_equal(original.boundary_nodes, permuted.boundary_nodes)


def test_masks_plus_boundary_partition_edges(karate):
    labels = detect_communities(karate, seed=3).labels
    bset = boundary_edges(karate, labels)
    mask_edges = set(edge_tuples(community_mask(karate, labels)))
    cross = set(map(tuple, bset.boundary_edges.tolist()))
    assert mask_edges.isdisjoint(cross)
    assert {tuple(sorted(e)) for e in mask_edges | cross} == set(edge_tuples(karate))


def test_labeling_length_mismatch_rejected():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        boundary_edges(g, np.array([0, 1]))
