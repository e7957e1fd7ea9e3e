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
from conftest import edge_tuples, neighbors, random_connected_graph


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


def load_edge_list_reference(lines):
    """The per-line loader: intern, then drop a self-loop or an edge already seen.

    Returns names, edges as (u, v) tuples with u < v, sorted neighbour
    tuples per node, and the two drop counts.
    """
    ids = {}
    edges = []
    seen = set()
    self_loops = duplicates = 0
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        u, v = (ids.setdefault(token, len(ids)) for token in text.replace(",", " ").split())
        if u == v:
            self_loops += 1
            continue
        edge = (min(u, v), max(u, v))
        if edge in seen:
            duplicates += 1
            continue
        seen.add(edge)
        edges.append(edge)
    adjacency = [[] for _ in ids]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return tuple(ids), edges, [tuple(sorted(row)) for row in adjacency], self_loops, duplicates


def random_edge_lines(rng, num_lines):
    """Edge-list lines over string and integer tokens, with every kind of noise."""
    tokens = [str(t) for t in rng.integers(-5, 40, size=12)] + [f"n{i}" for i in range(12)]
    lines = []
    pairs = []
    for _ in range(num_lines):
        kind = rng.integers(8)
        a, b = (tokens[i] for i in rng.integers(len(tokens), size=2))
        if kind == 0:
            lines.append(rng.choice(["", "   ", "# comment", "  # 1 2"]))
            continue
        if kind == 1:
            b = a  # self-loop
        elif kind in (2, 3) and pairs:
            a, b = pairs[rng.integers(len(pairs))]
            if kind == 3:
                a, b = b, a  # duplicate in the other orientation
        pairs.append((a, b))
        lines.append(rng.choice([f"{a} {b}", f"{a},{b}", f"  {a}\t{b} ", f"{a}, {b}"]))
    lines.append(f"{pairs[0][0]} {pairs[0][1]}" if pairs else "x y")
    return [line + "\n" for line in lines]


@pytest.mark.parametrize("seed", range(20))
def test_load_matches_per_line_reference(seed):
    rng = np.random.default_rng(seed)
    lines = random_edge_lines(rng, int(rng.integers(1, 300)))
    g = load_edge_list(io.StringIO("".join(lines)))
    names, edges, adjacency, self_loops, duplicates = load_edge_list_reference(lines)
    assert g.names == names
    assert g.num_nodes == len(names)
    assert edge_tuples(g) == tuple(edges)
    assert [neighbors(g, v) for v in range(g.num_nodes)] == adjacency
    assert g.self_loops_dropped == self_loops
    assert g.duplicates_dropped == duplicates


def test_adjacency_consistent_with_edges(karate):
    assert karate.edges.dtype == np.int64
    assert karate.edges.shape == (karate.num_edges, 2)
    assert np.all(karate.edges[:, 0] < karate.edges[:, 1])
    assert not karate.edges.flags.writeable
    assert sum(karate.degree(v) for v in range(karate.num_nodes)) == 2 * karate.num_edges
    for u, v in edge_tuples(karate):
        assert v in neighbors(karate, u)
        assert u in neighbors(karate, v)
    for v in range(karate.num_nodes):
        row = neighbors(karate, v)
        assert list(row) == sorted(row)
        assert len(set(row)) == len(row)


def adjacency_reference(g):
    """Sorted neighbour tuples per node, built from the edge rows one at a time."""
    adjacency = [[] for _ in range(g.num_nodes)]
    for u, v in edge_tuples(g):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return [tuple(sorted(row)) for row in adjacency]


def test_csr_matches_adjacency(karate):
    isolated = build_graph(5, [(0, 3), (3, 1), (1, 0)])  # nodes 2 and 4 have no edge
    walk_graph = community_mask(karate, detect_communities(karate, seed=0).labels)
    for g in (karate, isolated, walk_graph, build_graph(0, [])):
        adjacency = adjacency_reference(g)
        indptr, indices = g.csr
        assert g.csr is g.csr  # built once
        assert indptr.dtype == indices.dtype == np.int64
        assert len(indptr) == g.num_nodes + 1 and indptr[0] == 0
        assert indptr[-1] == len(indices) == 2 * g.num_edges
        for v in range(g.num_nodes):
            row = indices[indptr[v]:indptr[v + 1]]
            assert tuple(row.tolist()) == adjacency[v]
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
    assert set(edge_tuples(again)) == set(edge_tuples(karate))
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
    assert [c.tolist() for c in parts.components] == [[0, 1, 2, 3]]


def test_components_two_triangles(two_triangles_disjoint):
    parts = connected_components(two_triangles_disjoint)
    assert len(parts.components) == 2
    assert all(len(c) == 3 for c in parts.components)


def test_components_ordering_descending_size_then_smallest_member():
    g = build_graph(6, [(3, 4), (4, 5), (3, 5), (0, 1)])  # triangle, edge, isolate
    parts = connected_components(g)
    assert [c.tolist() for c in parts.components] == [[3, 4, 5], [0, 1], [2]]
    assert parts.component_id[3] == 0
    assert parts.component_id[0] == 1
    assert parts.component_id[2] == 2


def test_components_endpoints_agree(karate):
    parts = connected_components(karate)
    for u, v in karate.edges:
        assert parts.component_id[u] == parts.component_id[v]


def subgraph_mapping(nodes):
    """Old-to-new ids of ``subgraph``: new ids are positions in ``np.unique(nodes)``."""
    kept = np.unique(list(nodes)).tolist()
    return dict(zip(kept, range(len(kept))))


def test_subgraph_keeps_internal_edge():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    sub, mapping = subgraph(g, {0, 1}), subgraph_mapping({0, 1})
    assert sub.num_nodes == 2
    assert sub.num_edges == 1
    assert mapping == {0: 0, 1: 1}


def test_subgraph_identity():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    sub, mapping = subgraph(g, range(4)), subgraph_mapping(range(4))
    assert np.array_equal(sub.edges, g.edges)
    assert mapping == {v: v for v in range(4)}


def test_subgraph_drops_cross_edge(two_triangles_bridged):
    sub = subgraph(two_triangles_bridged, {0, 1, 2})
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
        sub, mapping = subgraph(g, keep), subgraph_mapping(keep)
        for old, new in mapping.items():
            assert sub.degree(new) <= g.degree(old)
        assert sub.num_nodes == len(mapping)
        assert sub.edges.tolist() == [[mapping[u], mapping[v]] for u, v in g.edges.tolist()
                                      if u in mapping and v in mapping]


@pytest.mark.parametrize("num_nodes,edges,message", [
    pytest.param(2, [(0, 0)], "self-loop at node 0", id="self-loop"),
    pytest.param(2, [(0, 1), (1, 0)], "duplicate edge (0, 1)", id="reversed-duplicate"),
    pytest.param(2, [(0, 5)], "edge (0, 5) out of range for 2 nodes", id="out-of-range"),
    pytest.param(3, [(0, 1), (2, -1)], "edge (2, -1) out of range for 3 nodes", id="negative-id"),
    pytest.param(-1, [], "num_nodes must be nonnegative", id="negative-num-nodes"),
    pytest.param(4, np.array([[0, 1], [2, 1], [3, 3], [1, 2]]), "self-loop at node 3",
                 id="ndarray"),
    pytest.param(6, [(0, 1), (1, 2), (4, 3), (5, 9), (3, 4), (2, 2)],
                 "edge (5, 9) out of range for 6 nodes", id="bad-after-good"),
])
def test_build_graph_rejects_bad_edges(num_nodes, edges, message):
    """The message names the first offending edge in input order."""
    with pytest.raises(ValueError) as excinfo:
        build_graph(num_nodes, edges)
    assert str(excinfo.value) == message
