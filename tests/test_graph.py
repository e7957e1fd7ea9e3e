import io

import numpy as np
import pytest

from boundary_vicinity import (
    EdgeListParseError,
    build_graph,
    community_mask,
    connected_components,
    detect_communities,
    load_edge_list,
    subgraph,
    write_edge_list,
)
from conftest import random_connected_graph


def test_load_two_edge_path():
    g = load_edge_list(io.StringIO("0 1\n1 2"))
    assert g.num_nodes == 3
    assert g.num_edges == 2


def test_load_drops_self_loops_and_duplicates():
    g = load_edge_list(io.StringIO("a b\nb a\na a"))
    assert g.num_nodes == 2
    assert g.num_edges == 1
    assert g.duplicates_dropped == 1
    assert g.self_loops_dropped == 1


def test_load_karate(karate):
    assert karate.num_nodes == 34
    assert karate.num_edges == 78


def test_load_tolerates_comments_blank_lines_and_commas():
    g = load_edge_list(io.StringIO("# header\n\n0,1\n1\t2\n"))
    assert g.num_edges == 2


def test_load_interns_sparse_ids_densely():
    g = load_edge_list(io.StringIO("10 20\n20 30"))
    assert g.num_nodes == 3
    assert g.names == ("10", "20", "30")


def test_load_malformed_line_reports_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n0 1 2\n"))


def test_load_empty_input_errors():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO(""))
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("# only a comment\n"))


def test_adjacency_consistent_with_edges(karate):
    assert sum(len(n) for n in karate.adjacency) == 2 * karate.num_edges
    for u, v in karate.edges:
        assert v in karate.adjacency[u]
        assert u in karate.adjacency[v]
    for neighbors in karate.adjacency:
        assert list(neighbors) == sorted(neighbors)
        assert len(set(neighbors)) == len(neighbors)


def test_csr_matches_adjacency(karate):
    isolated = build_graph(5, [(0, 3), (3, 1), (1, 0)])  # nodes 2 and 4 have no edge
    walk_graph = community_mask(karate, detect_communities(karate, seed=0))
    for g in (karate, isolated, walk_graph, build_graph(0, [])):
        indptr, indices = g.csr
        assert g.csr is g.csr  # built once
        assert indptr.dtype == indices.dtype == np.int64
        assert len(indptr) == g.num_nodes + 1 and indptr[0] == 0
        assert indptr[-1] == len(indices) == 2 * g.num_edges
        for v in range(g.num_nodes):
            row = indices[indptr[v]:indptr[v + 1]]
            assert tuple(row.tolist()) == g.adjacency[v]
            assert np.all(np.diff(row) > 0)
        for array in (indptr, indices):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 7
    assert isolated.csr[0].tolist() == [0, 2, 4, 4, 6, 6]
    assert walk_graph.num_edges < karate.num_edges


def test_round_trip_preserves_edge_set(karate):
    buffer = io.StringIO()
    write_edge_list(karate, buffer)
    buffer.seek(0)
    again = load_edge_list(buffer)
    assert set(again.edges) == set(karate.edges)
    assert again.num_nodes == karate.num_nodes
    # a second round trip is byte-identical
    buffer2 = io.StringIO()
    write_edge_list(again, buffer2)
    assert buffer2.getvalue() == buffer.getvalue()


def test_components_edgeless():
    g = build_graph(5, [])
    parts = connected_components(g)
    assert len(parts.components) == 5
    assert all(len(c) == 1 for c in parts.components)


def test_components_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    parts = connected_components(g)
    assert parts.components == ((0, 1, 2, 3),)


def test_components_two_triangles(two_triangles_disjoint):
    parts = connected_components(two_triangles_disjoint)
    assert len(parts.components) == 2
    assert all(len(c) == 3 for c in parts.components)


def test_components_ordering_descending_size_then_smallest_member():
    g = build_graph(6, [(3, 4), (4, 5), (3, 5), (0, 1)])  # triangle, edge, isolate
    parts = connected_components(g)
    assert parts.components == ((3, 4, 5), (0, 1), (2,))
    assert parts.component_id[3] == 0
    assert parts.component_id[0] == 1
    assert parts.component_id[2] == 2


def test_components_endpoints_agree(karate):
    parts = connected_components(karate)
    for u, v in karate.edges:
        assert parts.component_id[u] == parts.component_id[v]


def test_subgraph_keeps_internal_edge():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    sub, mapping = subgraph(g, {0, 1})
    assert sub.num_nodes == 2
    assert sub.num_edges == 1
    assert mapping == {0: 0, 1: 1}


def test_subgraph_identity():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub, mapping = subgraph(g, range(4))
    assert sub.edges == g.edges
    assert mapping == {v: v for v in range(4)}


def test_subgraph_drops_cross_edge(two_triangles_bridged):
    sub, _ = subgraph(two_triangles_bridged, {0, 1, 2})
    assert sub.num_nodes == 3
    assert sub.num_edges == 3


def test_subgraph_out_of_range():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        subgraph(g, {0, 7})


def test_subgraph_degrees_never_grow():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = random_connected_graph(rng)
        keep = [v for v in range(g.num_nodes) if rng.random() < 0.6]
        sub, mapping = subgraph(g, keep)
        for old, new in mapping.items():
            assert sub.degree(new) <= g.degree(old)


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 5)])
