"""Community detection tests, checked against partition enumeration and networkx."""

import functools
import hashlib
import itertools

import networkx as nx
import numpy as np
import pytest

from boundary_vicinity import (
    Graph,
    boundary_edges,
    build_graph,
    community,
    community_mask,
    connect_communities,
    detect_communities,
    erdos_renyi,
    modularity,
    preferential_attachment,
)
from boundary_vicinity.community import (
    COLOUR_MOVE_MIN_NODES,
    _aggregate,
    _colour_classes,
    _colour_level,
    _LevelGraph,
    _one_level,
)
from conftest import edge_tuples


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
    nxg.add_edges_from(g.edges.tolist())
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


@pytest.mark.parametrize("labels", [[0, 0], [0, 0, 1, 1]])
def test_modularity_errors_on_a_label_per_node_mismatch(labels):
    with pytest.raises(ValueError, match=f"expected 3 labels, got {len(labels)}"):
        modularity(build_graph(3, [(0, 1), (1, 2)]), labels)


def test_modularity_range_on_random_labelings(karate):
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels = rng.integers(0, 4, size=karate.num_nodes)
        assert -0.5 <= modularity(karate, list(labels)) <= 1.0


def modularity_reference(g, labels):
    """The per-edge dict loop: terms added in order of first endpoint."""
    m = g.num_edges
    internal, endpoint = {}, {}
    for u, v in edge_tuples(g):
        cu, cv = labels[u], labels[v]
        if cu == cv:
            internal[cu] = internal.get(cu, 0) + 1
        endpoint[cu] = endpoint.get(cu, 0) + 1
        endpoint[cv] = endpoint.get(cv, 0) + 1
    q = 0.0
    for c, ends in endpoint.items():
        e_c = internal.get(c, 0) / m
        a_c = ends / (2 * m)
        q += e_c - a_c * a_c
    return q


@pytest.mark.parametrize("seed", range(5))
def test_modularity_bit_identical_to_dict_loop(seed):
    rng = np.random.default_rng(seed)
    g = preferential_attachment(200, 2, seed=seed)
    for k in (1, 2, 7, 60, 200):
        labels = rng.integers(0, k, size=g.num_nodes) * 1000 - 5  # sparse, negative labels
        assert modularity(g, labels) == modularity_reference(g, labels.tolist())


def level_reference(num_nodes, weights, self_weights):
    """A level graph built pair by pair: each node's (neighbour, weight) list in pair order."""
    neighbors = [[] for _ in range(num_nodes)]
    for (u, v), w in weights.items():
        neighbors[u].append((v, w))
        neighbors[v].append((u, w))
    strength = [sum(w for _, w in neighbors[i]) + 2.0 * self_weights[i]
                for i in range(num_nodes)]
    return neighbors, list(self_weights), strength


def aggregate_reference(neighbors, self_weights, comm):
    """The per-edge aggregation scan: pairs keyed in first-seen order."""
    renumber = {old: new for new, old in enumerate(sorted(set(comm)))}
    dense = [renumber[c] for c in comm]
    weights = {}
    self_w = [0.0] * len(renumber)
    for i, row in enumerate(neighbors):
        self_w[dense[i]] += self_weights[i]
        for j, w in row:
            if j < i:
                continue
            if dense[i] == dense[j]:
                self_w[dense[i]] += w
            else:
                key = (min(dense[i], dense[j]), max(dense[i], dense[j]))
                weights[key] = weights.get(key, 0.0) + w
    return level_reference(len(renumber), weights, self_w), dense


@pytest.mark.parametrize("kind", ["karate", "er", "pa", "disjoint"])
def test_level_graphs_match_pair_by_pair_reference(kind, karate, two_triangles_disjoint):
    """Neighbour order decides the local-move queue, so every level must keep it."""
    g = {"karate": karate, "er": erdos_renyi(200, 0.03, seed=4),
         "pa": preferential_attachment(300, 2, seed=5), "disjoint": two_triangles_disjoint}[kind]
    level = _LevelGraph.from_graph(g)
    expected = level_reference(g.num_nodes, {e: 1.0 for e in edge_tuples(g)}, [0.0] * g.num_nodes)
    rng = np.random.default_rng(0)
    levels = 0
    while True:
        bounds = level.indptr.tolist()
        pairs = list(zip(level.neighbors.tolist(), level.weights.tolist()))
        assert [pairs[a:b] for a, b in zip(bounds, bounds[1:])] == expected[0]
        assert level.self_weights.tolist() == expected[1]
        assert level.strength.tolist() == expected[2]
        assert level.total_weight == sum(w for _, w in pairs) / 2 + sum(expected[1])
        comm, _ = _one_level(level, rng)
        expected, dense = aggregate_reference(expected[0], expected[1], comm)
        level, got_dense = _aggregate(level, comm)
        assert got_dense.tolist() == dense
        levels += 1
        if len(expected[0]) == len(comm):
            break
    assert levels >= 2


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


@functools.cache
def planted_pa6k():
    """``bva generate planted --part-kind pa --n 2000 --m 3 --k 80 --seed 0``: 6,000 nodes."""
    return connect_communities([preferential_attachment(2000, 3, seed=i) for i in range(3)],
                               80, seed=0).graph


def test_detect_deterministic(karate):
    for g in (karate, planted_pa6k()):
        a = detect_communities(g, seed=11)
        b = detect_communities(g, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert a.modularity == b.modularity
        assert a.quality_trace == b.quality_trace
        assert a.local_moves == b.local_moves


def test_detect_labels_dense_and_q_consistent(karate):
    labeling = detect_communities(karate, seed=4)
    assert set(labeling.labels) == set(range(labeling.num_communities))
    assert labeling.modularity == pytest.approx(
        modularity(karate, labeling.labels), abs=1e-12
    )


def test_detect_trace_nondecreasing(karate):
    for g in (karate, planted_pa6k(), preferential_attachment(COLOUR_MOVE_MIN_NODES, 3, seed=9)):
        labeling = detect_communities(g, seed=9)
        trace = labeling.quality_trace
        assert labeling.passes == len(trace) >= 1
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_detect_modularity_not_below_trace(karate):
    """The labels are the partition the trace scores, split into connected pieces.

    Splitting a community into pieces with no edge between them never lowers
    Q, so the returned modularity cannot fall below the last trace value.
    """
    cases = [("karate", seed, karate) for seed in range(8)]
    cases += [("er", seed, erdos_renyi(300, 0.02, seed=seed)) for seed in range(3)]
    cases += [("pa", seed, preferential_attachment(300, 2, seed=seed)) for seed in range(3)]
    low = []
    for name, seed, g in cases:
        labeling = detect_communities(g, seed=seed)
        if labeling.modularity < labeling.quality_trace[-1] - 1e-12:
            low.append((name, seed, labeling.modularity, labeling.quality_trace[-1]))
    assert low == []


def grid_edges(rows, cols, torus=False):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    if torus:
        edges += [(r * cols + cols - 1, r * cols) for r in range(rows)]
        edges += [((rows - 1) * cols + c, c) for c in range(cols)]
    return edges


@functools.cache
def tie_heavy_graphs():
    """Graphs where many moves tie on modularity gain.

    The last six have at least ``COLOUR_MOVE_MIN_NODES`` nodes, so they take
    the colour-class move; the first five take the queue move.
    """
    ladder = [(i, i + 1) for i in range(19)] + [(20 + i, 21 + i) for i in range(19)]
    ladder += [(i, 20 + i) for i in range(20)]
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    cube = [(i, i ^ 1 << b) for i in range(4096) for b in range(12) if i < i ^ 1 << b]
    return {
        "cycle30": build_graph(30, [(i, (i + 1) % 30) for i in range(30)]),
        "grid6x6": build_graph(36, grid_edges(6, 6)),
        "k5_5": build_graph(10, [(u, v) for u in range(5) for v in range(5, 10)]),
        "ladder20": build_graph(40, ladder),
        "petersen": build_graph(10, petersen),
        "grid70x70": build_graph(4900, grid_edges(70, 70)),
        "torus64x64": build_graph(4096, grid_edges(64, 64, torus=True)),
        "ring5000k3": build_graph(5000, [(i, (i + d) % 5000) for i in range(5000)
                                         for d in (1, 2, 3)]),
        "hypercube12": build_graph(4096, cube),
        "star4000": build_graph(4000, [(0, v) for v in range(1, 4000)]),
        "matching4000": build_graph(4000, [(2 * i, 2 * i + 1) for i in range(2000)]),
    }


@pytest.mark.parametrize("name", sorted(tie_heavy_graphs()))
def test_detect_queue_terminates_on_tie_heavy_graphs(name):
    """The local move ends, Q never falls, and a seed fixes the labels."""
    g = tie_heavy_graphs()[name]
    for seed in range(5):
        labeling = detect_communities(g, seed=seed)
        trace = labeling.quality_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:])), (name, seed)
        assert labeling.local_moves >= g.num_nodes
        again = detect_communities(g, seed=seed)
        assert ({**vars(again), "labels": again.labels.tolist()}
                == {**vars(labeling), "labels": labeling.labels.tolist()}), (name, seed)


def test_detect_accepts_disconnected(two_triangles_disjoint):
    labeling = detect_communities(two_triangles_disjoint, seed=0)
    assert labeling.num_communities == 2


@pytest.mark.parametrize("kind", ["er", "pa", "er-colour", "pa-colour"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detect_communities_are_connected(kind, seed):
    """Louvain can strand pieces of a community; each piece gets its own label.

    The ``-colour`` graphs have ``COLOUR_MOVE_MIN_NODES`` nodes, the others 300.
    """
    n = COLOUR_MOVE_MIN_NODES if kind.endswith("-colour") else 300
    if kind.startswith("er"):
        g = erdos_renyi(n, 6 / n, seed=seed)
    else:
        g = preferential_attachment(n, 2, seed=seed)
    labeling = detect_communities(g, seed=seed)
    nxg = to_networkx(g)
    members = np.argsort(labeling.labels, kind="stable")
    ends = np.cumsum(np.bincount(labeling.labels))
    for c, part in enumerate(np.split(members, ends[:-1])):
        assert nx.is_connected(nxg.subgraph(part.tolist())), (kind, seed, c)


@pytest.mark.parametrize("kind, tolerance", [("planted-pa6k", 0.001), ("pa", 0.01),
                                             ("er", 0.01)])
def test_colour_move_modularity_near_queue_move(kind, tolerance, monkeypatch):
    """Q with the colour-class move is not below the queue move's, within a tolerance.

    It is absolute on the planted graph and relative on PA(5000, 3) and
    ER(5000, 0.0012), which have no planted parts.
    """
    g = {"planted-pa6k": planted_pa6k, "pa": lambda: preferential_attachment(5000, 3, seed=0),
         "er": lambda: erdos_renyi(5000, 0.0012, seed=0)}[kind]()
    for seed in range(3):
        colour = detect_communities(g, seed=seed).modularity
        with monkeypatch.context() as patch:
            patch.setattr(community, "COLOUR_MOVE_MIN_NODES", g.num_nodes + 1)
            queue = detect_communities(g, seed=seed).modularity
        floor = queue - tolerance if kind == "planted-pa6k" else queue * (1 - tolerance)
        assert colour >= floor, (kind, seed, colour, queue)


def test_detect_picks_the_move_by_level_size(monkeypatch):
    """A level one node below ``COLOUR_MOVE_MIN_NODES`` takes the queue move; one of
    exactly that many nodes takes the colour-class move."""
    sizes = []

    def spy(level, rng):
        sizes.append(level.num_nodes)
        return _colour_level(level, rng)

    monkeypatch.setattr(community, "_colour_level", spy)
    below = detect_communities(preferential_attachment(COLOUR_MOVE_MIN_NODES - 1, 3, seed=0))
    assert sizes == []
    # labels and local_moves of the queue move, recorded before the colour move existed
    assert (hashlib.sha256(below.labels.tobytes()).hexdigest(), below.local_moves) == (
        "9d03baaf2abad0eb1de77496734aae3b22b1e80caae503a59b3f9753e1f0ecf4", 20249)
    detect_communities(preferential_attachment(COLOUR_MOVE_MIN_NODES, 3, seed=0))
    assert sizes == [COLOUR_MOVE_MIN_NODES]


@pytest.mark.parametrize("kind", ["karate", "star", "pa", "er", "planted-pa6k"])
def test_colour_classes_are_independent_sets_covering_every_node(kind, karate):
    g = {"karate": lambda: karate, "star": lambda: build_graph(50, [(0, v) for v in range(1, 50)]),
         "pa": lambda: preferential_attachment(1000, 3, seed=1),
         "er": lambda: erdos_renyi(1000, 0.004, seed=1), "planted-pa6k": planted_pa6k}[kind]()
    level = _LevelGraph.from_graph(g)
    classes = _colour_classes(level, np.random.default_rng(3))
    colour = np.full(g.num_nodes, -1)
    for c, members in enumerate(classes):
        assert len(members) and (colour[members] == -1).all()
        colour[members] = c
    assert (colour >= 0).all()
    assert (colour[g.edges[:, 0]] != colour[g.edges[:, 1]]).all()
    # largest degree first
    degree = np.diff(level.indptr)
    assert degree[classes[0]].max() == degree.max()


def colour_level_reference(level, classes):
    """The colour-class move one node at a time: each active member of a class picks
    its best community from the totals as they stood before the class moved."""
    n, m = level.num_nodes, level.total_weight
    bounds = level.indptr.tolist()
    rows = [list(zip(level.neighbors[a:b].tolist(), level.weights[a:b].tolist()))
            for a, b in zip(bounds, bounds[1:])]
    strength = level.strength.tolist()
    comm, tot, active = list(range(n)), list(strength), [True] * n
    evaluated = 0
    while any(active):
        for members in classes:
            moves = []
            for i in members.tolist():
                if not active[i]:
                    continue
                active[i] = False
                evaluated += 1
                k_i, own = strength[i], comm[i]
                links = {own: 0.0}
                for j, w in rows[i]:
                    links[comm[j]] = links.get(comm[j], 0.0) + w
                gains = {c: links[c] / m
                         - (tot[c] - (k_i if c == own else 0.0)) * k_i / (2.0 * m * m)
                         for c in links}
                best = min(gains, key=lambda c: (-gains[c], c))
                if best != own:
                    moves.append((i, best))
            for i, best in moves:
                tot[comm[i]] -= strength[i]
                tot[best] += strength[i]
                comm[i] = best
                for j, _ in rows[i]:
                    active[j] = active[j] or comm[j] != best
    return comm, evaluated


@pytest.mark.parametrize("kind", ["karate", "pa", "er", "aggregated"])
def test_colour_level_matches_node_by_node_reference(kind, karate):
    g = {"karate": karate, "pa": preferential_attachment(600, 3, seed=2),
         "er": erdos_renyi(600, 0.01, seed=2),
         "aggregated": preferential_attachment(2000, 2, seed=2)}[kind]
    level = _LevelGraph.from_graph(g)
    if kind == "aggregated":  # weighted pairs and self-weights
        level, _ = _aggregate(level, _one_level(level, np.random.default_rng(0))[0])
        assert level.self_weights.any() and (level.weights > 1).any()
    for seed in range(3):
        comm, evaluated = _colour_level(level, np.random.default_rng(seed))
        classes = _colour_classes(level, np.random.default_rng(seed))
        assert (comm.tolist(), evaluated) == colour_level_reference(level, classes)


def test_detect_errors_on_edgeless():
    with pytest.raises(ValueError):
        detect_communities(build_graph(4, []), seed=0)


def test_detect_errors_on_a_graph_with_no_nodes():
    """A graph with no nodes has no edges, so the edgeless error covers it."""
    empty = Graph(0, np.empty((0, 2), dtype=np.int64), ())
    with pytest.raises(ValueError, match="undefined for a graph with no edges"):
        detect_communities(empty, seed=0)


def test_mask_excludes_cross_edge(two_triangles_bridged):
    labeling = detect_communities(two_triangles_bridged, seed=0)
    c_left = labeling.labels[0]
    mask = community_mask(two_triangles_bridged, labeling.labels)
    assert mask.num_nodes == 6
    assert (2, 3) not in edge_tuples(mask)
    left = [e for e in edge_tuples(mask) if labeling.labels[e[0]] == c_left]
    assert left == [(0, 1), (0, 2), (1, 2)]


def test_mask_whole_graph_single_community(karate):
    # a single label exercises the identity case
    mask = community_mask(karate, np.zeros(karate.num_nodes, dtype=np.int64))
    assert np.array_equal(mask.edges, karate.edges)
    assert all(np.array_equal(a, b) for a, b in zip(mask.csr, karate.csr))


def test_mask_cross_only_community_keeps_isolated_nodes():
    # star of cross edges: center labeled 0, leaves labeled 1
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    mask = community_mask(g, np.array([0, 1, 1, 1]))
    assert mask.num_nodes == 4
    assert mask.num_edges == 0


def test_masks_and_boundary_partition_edge_set(karate):
    labels = detect_communities(karate, seed=2).labels
    bset = boundary_edges(karate, labels)
    mask = community_mask(karate, labels)
    assert mask.num_edges + len(bset.boundary_edges) == karate.num_edges
