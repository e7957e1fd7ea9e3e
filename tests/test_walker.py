"""Walker tests built around an exact walk-enumeration oracle.

The oracle enumerates every sequence of neighbor choices with its
probability, giving exact expected visit counts (and second moments)
independently of how the sampler is implemented.
"""

import numpy as np
import pytest

from boundary_vicinity import (
    WalkBatch,
    WalkConfig,
    boundary_edges,
    build_graph,
    bva,
    community_mask,
    connect_communities,
    connected_components,
    default_step_count,
    detect_communities,
    erdos_renyi,
    preferential_attachment,
    psrf,
    random_walk,
    run_converged_walks,
    scale_community_weights,
)
from boundary_vicinity.walker import _walk_uniforms
from conftest import neighbors as graph_neighbors
from reference import _walk_rng


def enumerate_visit_moments(mask, start, stepnum):
    """Exact E[visits] and E[visits^2] per node over all neighbor sequences."""
    n = mask.num_nodes
    expected = np.zeros(n)
    second = np.zeros(n)

    def recurse(current, step, visits, prob):
        neighbors = graph_neighbors(mask, current)
        if step == stepnum or not neighbors:
            expected[:] += prob * visits
            second[:] += prob * visits * visits
            return
        for nxt in neighbors:
            branch = visits.copy()
            branch[nxt] += 1
            recurse(nxt, step + 1, branch, prob / len(neighbors))

    first = np.zeros(n)
    first[start] = 1
    recurse(start, 0, first, 1.0)
    return expected, second


# --- step-length heuristic ---


@pytest.mark.parametrize("n,expected", [(1000, 4), (34, 3), (10, 3), (2, 2), (3, 2), (16, 3)])
def test_default_step_count(n, expected):
    assert default_step_count(n) == expected


def test_default_step_count_rejects_tiny():
    with pytest.raises(ValueError):
        default_step_count(1)


# --- single walks ---


def test_walk_isolated_start_terminates():
    g = build_graph(3, [(1, 2)])
    path = random_walk(g, 0, 10, np.random.default_rng(0))
    assert path.tolist() == [0]


def test_walk_two_node_graph_deterministic():
    g = build_graph(2, [(0, 1)])
    path = random_walk(g, 0, 3, np.random.default_rng(0))
    assert path.tolist() == [0, 1, 0, 1]


def test_walk_triangle_mass():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    rng = np.random.default_rng(1)
    for _ in range(50):
        path = random_walk(g, 0, 2, rng)
        assert len(path) == 3  # start + 2 steps, no dead ends


def test_walk_mass_bound_with_dead_ends():
    # path with a pendant: walks die when they hit an isolated-in-mask node
    g = build_graph(4, [(0, 1), (1, 2)])
    rng = np.random.default_rng(2)
    for _ in range(100):
        path = random_walk(g, 0, 5, rng)
        assert 1 <= len(path) <= 6


def test_walk_start_must_exist():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        random_walk(g, 5, 3, np.random.default_rng(0))


def test_walk_sampled_mean_matches_enumeration():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    stepnum = 3
    expected, second = enumerate_visit_moments(g, 0, stepnum)
    rng = np.random.default_rng(99)
    walks = 20000
    total = np.zeros(4)
    for _ in range(walks):
        total += np.bincount(random_walk(g, 0, stepnum, rng), minlength=4)
    mean = total / walks
    sigma = np.sqrt(np.maximum(second - expected**2, 0.0))
    band = 3.0 * sigma / np.sqrt(walks)
    assert np.all(np.abs(mean - expected) <= band + 1e-12)


@pytest.mark.parametrize("stepnum", [1, 4, 5, 9])
@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
def test_walk_uniforms_match_per_walk_generators(seed, stepnum):
    origins = np.array([0, 3, 2**32 + 9, 2**40 + 2**32 + 1, 6000])
    walks = np.arange(100, 300)  # mid-stream walk ids, as in later batches
    origin = np.repeat(origins, len(walks))
    walk = np.tile(walks, len(origins))
    drawn = _walk_uniforms(seed, origin, walk, stepnum)
    expected = np.array([
        _walk_rng(seed, o, w).random(stepnum) for o, w in zip(origin.tolist(), walk.tolist())
    ])
    assert drawn.shape == (len(origin), stepnum)
    assert np.array_equal(drawn, expected)  # bit for bit, not within a tolerance


# --- convergence diagnostic ---


def test_psrf_identical_groups_b_zero():
    rng = np.random.default_rng(0)
    group = rng.integers(0, 5, size=(100, 3))
    batch = WalkBatch(visits=np.vstack([group, group]), nodes=np.arange(3))
    n = 100
    assert psrf(batch) == pytest.approx(np.sqrt((n - 1) / n), abs=1e-12)


def test_psrf_all_identical_walks_degenerate_one():
    batch = WalkBatch(visits=np.tile([1, 2, 0], (40, 1)), nodes=np.arange(3))
    assert psrf(batch) == 1.0


def test_psrf_divergent_means_explodes():
    rng = np.random.default_rng(1)
    low = rng.normal(0.0, 0.01, size=(50, 2))
    high = rng.normal(10.0, 0.01, size=(50, 2))
    batch = WalkBatch(visits=np.vstack([low, high]), nodes=np.arange(2))
    assert psrf(batch) > 1.05


def test_psrf_validates_grouping():
    with pytest.raises(ValueError):
        psrf(WalkBatch(visits=np.zeros((2, 2)), nodes=np.arange(2)))  # chains of 1


def test_psrf_leaves_out_odd_trailing_walk():
    visits = np.random.default_rng(2).integers(0, 5, size=(11, 3))
    value = psrf(WalkBatch(visits=visits, nodes=np.arange(3)))
    assert value == psrf(WalkBatch(visits=visits[:10], nodes=np.arange(3)))
    assert value != psrf(WalkBatch(visits=visits[1:], nodes=np.arange(3)))
    with pytest.raises(ValueError):
        psrf(WalkBatch(visits=np.zeros((3, 2)), nodes=np.arange(2)))  # chains of 1


def test_converged_walks_isolated_origin_one_batch():
    g = build_graph(2, [])
    batch = run_converged_walks(g, 0, WalkConfig(walknum=10, stepnum=5, seed=0))
    assert batch.converged
    assert batch.batches == 1
    assert batch.num_walks == 10
    assert batch.nodes.tolist() == [0]
    assert batch.visits.tolist() == [[1]] * 10


def test_converged_walks_two_node_deterministic_one_batch():
    g = build_graph(2, [(0, 1)])
    batch = run_converged_walks(g, 0, WalkConfig(walknum=8, stepnum=3, seed=0))
    assert batch.converged
    assert batch.batches == 1
    assert batch.nodes.tolist() == [0, 1]
    assert np.all(batch.visits == [2, 2])


def test_walk_batch_columns_are_the_visited_nodes():
    # two steps from 0 reach only 0, 1 and 2; nodes 3 to 6 get no column
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    cfg = WalkConfig(walknum=8, stepnum=2, seed=11)
    batch = run_converged_walks(g, 0, cfg)
    paths = [
        random_walk(g, 0, cfg.stepnum, _walk_rng(cfg.seed, 0, w))
        for w in range(batch.num_walks)
    ]
    dense = np.array([np.bincount(p, minlength=g.num_nodes) for p in paths])
    assert np.all(np.diff(batch.nodes) > 0)
    assert np.all(batch.visits.sum(axis=0) > 0)
    assert batch.visits.sum(axis=1).tolist() == [len(p) for p in paths]
    assert np.array_equal(batch.visits, dense[:, batch.nodes])
    assert not dense[:, np.setdiff1d(np.arange(g.num_nodes), batch.nodes)].any()


def test_converged_walks_er_fixed_seed_regression():
    g = erdos_renyi(100, 0.1, seed=5)
    assert len(connected_components(g).components) == 1
    cfg = WalkConfig(walknum=50, stepnum=4, seed=123)
    batch = run_converged_walks(g, 0, cfg)
    assert batch.converged
    assert batch.num_walks == 150  # frozen from the first verified run
    again = run_converged_walks(g, 0, cfg)
    assert again.num_walks == batch.num_walks
    assert np.array_equal(again.nodes, batch.nodes)
    assert np.array_equal(again.visits, batch.visits)


def test_converged_walks_unconverged_is_flagged():
    g = erdos_renyi(100, 0.1, seed=5)
    cfg = WalkConfig(walknum=6, stepnum=4, seed=0, max_batches=2,
                     psrf_low=0.999, psrf_high=1.001)
    batch = run_converged_walks(g, 0, cfg)
    assert not batch.converged
    assert batch.num_walks == 12  # every batch ran, convergence never reached
    assert batch.batches == 2


def loop_converged_walks(mask, start, cfg):
    """The walk-at-a-time definition: one generator and one random_walk per walk."""
    paths = []
    for batches in range(1, cfg.max_batches + 1):
        for _ in range(cfg.walknum):
            rng = _walk_rng(cfg.seed, start, len(paths))
            paths.append(random_walk(mask, start, cfg.stepnum, rng))
        nodes = np.unique(np.concatenate(paths))
        visits = np.array([np.bincount(p, minlength=mask.num_nodes)[nodes] for p in paths])
        value = psrf(WalkBatch(visits, nodes))
        converged = cfg.psrf_low <= value <= cfg.psrf_high
        if converged:
            break
    return WalkBatch(visits, nodes, converged, value, batches)


UNCONVERGED = dict(max_batches=2, psrf_low=0.999, psrf_high=1.001)


def graph_with_isolated_origin():
    """Two ER communities plus node 60, a singleton community joined to node 0.

    Node 60 is a boundary node with no neighbor in the walk graph, so its
    walks are [60].
    """
    planted = connect_communities(
        [erdos_renyi(30, 0.2, seed=20 + i) for i in range(2)], k=4, seed=2
    )
    g = build_graph(61, planted.graph.edges.tolist() + [(0, 60)])
    labels = np.append(planted.planted_labels, 2)
    return g, labels, boundary_edges(g, labels)


@pytest.mark.parametrize("cfg", [
    WalkConfig(walknum=5, stepnum=3, seed=4),
    WalkConfig(walknum=8, stepnum=5, seed=2**63 + 1),
    WalkConfig(walknum=6, stepnum=4, seed=0, **UNCONVERGED),
])
def test_converged_walks_match_walk_at_a_time_definition(cfg):
    g, labels, bset = graph_with_isolated_origin()
    mask = community_mask(g, labels)
    assert 60 in bset.boundary_nodes
    for start in bset.boundary_nodes.tolist():
        batch = run_converged_walks(mask, start, cfg)
        expected = loop_converged_walks(mask, start, cfg)
        assert np.array_equal(batch.nodes, expected.nodes)
        assert np.array_equal(batch.visits, expected.visits)
        assert (batch.converged, batch.psrf_value, batch.batches) == (
            expected.converged, expected.psrf_value, expected.batches)


@pytest.mark.parametrize("cfg", [
    WalkConfig(walknum=5, stepnum=3, seed=4),
    WalkConfig(walknum=5, stepnum=3, seed=4, **UNCONVERGED),
])
def test_bva_rounds_do_not_couple_origins(cfg):
    """bva walks all origins in rounds; each must get what it gets alone."""
    g, labels, bset = graph_with_isolated_origin()
    mask = community_mask(g, labels)
    sizes = np.bincount(labels)
    raw = np.zeros(g.num_nodes)
    walkers_used, converged, batches, last_psrf = [], [], [], []
    for node in bset.boundary_nodes.tolist():  # ascending, as bva adds them
        batch = run_converged_walks(mask, node, cfg)
        per_walker = batch.visits.sum(axis=0) / batch.num_walks
        size = int(sizes[labels[node]])
        raw[batch.nodes] += scale_community_weights(per_walker, size, g.num_nodes)
        walkers_used.append(batch.num_walks)
        converged.append(batch.converged)
        batches.append(batch.batches)
        last_psrf.append(batch.psrf_value)
    scores = bva(g, labels, bset, cfg)
    assert np.array_equal(scores.raw, raw)
    assert scores.walkers_used.tolist() == walkers_used
    assert scores.converged.tolist() == converged
    assert scores.batches.tolist() == batches
    assert scores.psrf.tolist() == last_psrf
    isolated = bset.boundary_nodes.tolist().index(60)
    assert scores.batches[isolated] == 1 and scores.converged[isolated]
    assert len(set(batches)) > 1  # origins leave the rounds at different batches


def test_converged_walks_requires_concrete_stepnum():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        run_converged_walks(g, 0, WalkConfig(stepnum=None))


# --- scaling ---


def test_scale_identity_for_whole_graph():
    out = scale_community_weights([3.0, 1.0], 10, 10)
    assert out.tolist() == [3.0, 1.0]


def test_scale_halves_for_half_graph():
    out = scale_community_weights([4.0, 2.0], 50, 100)
    assert out.tolist() == [2.0, 1.0]


def test_scale_linear_in_community_size():
    small = scale_community_weights([6.0], 30, 100)
    large = scale_community_weights([6.0], 60, 100)
    assert large[0] == pytest.approx(2 * small[0])


def test_scale_rejects_oversized_community():
    with pytest.raises(ValueError):
        scale_community_weights([1.0], 11, 10)


# --- walk config ---


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(walknum=3)
    with pytest.raises(ValueError):
        WalkConfig(stepnum=0)
    with pytest.raises(ValueError):
        WalkConfig(psrf_low=1.1)
    with pytest.raises(ValueError):
        WalkConfig(max_batches=0)


# --- full scoring ---


def test_bva_bridge_graph_ranks_boundary_first(two_triangles_bridged):
    labels = detect_communities(two_triangles_bridged, seed=0).labels
    bset = boundary_edges(two_triangles_bridged, labels)
    scores = bva(two_triangles_bridged, labels, bset, WalkConfig(seed=3))
    order = np.argsort(-scores.raw)
    assert set(order[:2].tolist()) == {2, 3}
    assert scores.normalized.max() == 1.0
    assert scores.warning is None


def test_bva_empty_boundary_all_zero(two_triangles_disjoint):
    labels = detect_communities(two_triangles_disjoint, seed=0).labels
    bset = boundary_edges(two_triangles_disjoint, labels)
    assert len(bset.boundary_nodes) == 0
    scores = bva(two_triangles_disjoint, labels, bset, WalkConfig(seed=0))
    assert np.all(scores.raw == 0.0)
    assert np.all(scores.normalized == 0.0)
    assert scores.warning is not None


def test_bva_deterministic():
    planted = connect_communities(
        [erdos_renyi(40, 0.15, seed=i) for i in range(3)], k=6, seed=0
    )
    g = planted.graph
    labels = detect_communities(g, seed=1).labels
    bset = boundary_edges(g, labels)
    cfg = WalkConfig(seed=42)
    first = bva(g, labels, bset, cfg)
    second = bva(g, labels, bset, cfg)
    assert np.array_equal(first.raw, second.raw)
    assert np.array_equal(first.walkers_used, second.walkers_used)
    assert np.array_equal(first.converged, second.converged)
    assert first.walk == second.walk == WalkConfig(
        seed=42, stepnum=default_step_count(g.num_nodes)
    )


def test_bva_confinement():
    planted = connect_communities(
        [erdos_renyi(30, 0.2, seed=10 + i) for i in range(2)], k=4, seed=1
    )
    g = planted.graph
    labels = planted.planted_labels
    bset = boundary_edges(g, labels)
    scores = bva(g, labels, bset, WalkConfig(seed=0))
    walked_communities = set(labels[bset.boundary_nodes].tolist())
    for v in range(g.num_nodes):
        if labels[v] not in walked_communities:
            assert scores.raw[v] == 0.0


def test_bva_walker_count_invariance():
    g = erdos_renyi(100, 0.1, seed=5)
    labels = np.zeros(100, dtype=np.int64)
    # single community: pick a node as a synthetic boundary origin
    from boundary_vicinity import BoundarySet

    bset = BoundarySet(boundary_edges=np.empty((0, 2), dtype=np.int64),
                       boundary_nodes=np.array([0]))
    base = bva(g, labels, bset, WalkConfig(walknum=1000, stepnum=4, seed=9))
    doubled = bva(g, labels, bset, WalkConfig(walknum=2000, stepnum=4, seed=9))
    assert base.converged[0] and doubled.converged[0]
    drift = np.linalg.norm(base.raw - doubled.raw) / np.linalg.norm(base.raw)
    assert drift < 0.05


def test_bva_scores_match_enumeration_oracle(two_triangles_bridged):
    """Expected scores from the enumeration oracle, scaled like the engine."""
    g = two_triangles_bridged
    labels = np.array([0, 0, 0, 1, 1, 1])
    bset = boundary_edges(g, labels)
    stepnum = 2
    mask = community_mask(g, labels)
    oracle = np.zeros(6)
    for b in bset.boundary_nodes.tolist():
        expected, _ = enumerate_visit_moments(mask, b, stepnum)
        size = np.count_nonzero(labels == labels[b])
        oracle += expected * size / g.num_nodes
    scores = bva(g, labels, bset, WalkConfig(walknum=4000, stepnum=stepnum, seed=1))
    assert np.allclose(scores.raw, oracle, atol=0.02)
    assert set(np.argsort(-oracle)[:2]) == {2, 3}


def test_bva_matches_exact_expectation_at_scale():
    """Scores on 3000 nodes against the exact expected score.

    E[raw] = sum_b |c_b|/N * sum_{t=0..stepnum} delta_b P_c^t, where P_c is
    the random-walk matrix of the intra-community edges; it is computed
    here by stepnum mat-vecs over the edge list, apart from the engine. A
    node's score sums, over the walks of every origin b in its community,
    visit counts in [0, ceil((stepnum + 1) / 2)] (a walk never stays put)
    weighted |c_b|/N / n_b, with n_b = walkers_used[b]; Hoeffding's
    inequality bounds its error at each of the N nodes with probability
    1e-3 of a false alarm in all.
    """
    parts = [preferential_attachment(1000, 3, seed=i) for i in range(3)]
    planted = connect_communities(parts, k=40, seed=0)
    g = planted.graph
    labels = planted.planted_labels
    bset = boundary_edges(g, labels)
    scores = bva(g, labels, bset, WalkConfig(walknum=400, seed=0))
    n, stepnum = g.num_nodes, scores.walk.stepnum

    edges = np.array(g.edges)
    inside = edges[labels[edges[:, 0]] == labels[edges[:, 1]]]
    src = np.concatenate([inside[:, 0], inside[:, 1]])
    dst = np.concatenate([inside[:, 1], inside[:, 0]])
    degree = np.bincount(src, minlength=n)
    origins = np.array(bset.boundary_nodes)
    share = np.bincount(labels)[labels[origins]] / n
    mass = np.bincount(origins, weights=share, minlength=n)
    expected = mass.copy()
    for _ in range(stepnum):
        mass = np.bincount(dst, weights=mass[src] / degree[src], minlength=n)
        expected += mass

    used = scores.walkers_used
    spread = np.bincount(labels[origins], weights=share**2 / used, minlength=3)[labels]
    bound = (stepnum + 2) // 2 * np.sqrt(spread * np.log(2 * n / 1e-3) / 2)
    assert bound.max() < expected.max()  # the check can fail
    assert np.all(np.abs(scores.raw - expected) <= bound)
    assert not np.any(scores.raw[expected == 0])
    # no origin is a dead end, so every walk takes all stepnum steps
    assert degree[origins].min() > 0
    assert scores.raw.sum() == pytest.approx(expected.sum(), rel=1e-12)


def test_bva_matches_exact_expectation_at_1e5_nodes():
    """Scores on 3xPA(30000, 3), k=200 (90k nodes) against the exact expected score.

    The planted labels stand in for Louvain. The exact score is
    sum_b |c_b|/N * sum_{t=0..stepnum} delta_b P_c^t, taken by stepnum
    ``bincount`` mat-vecs over the intra-community edges. The tolerance is
    Bernstein's bound for a sum of independent per-walk contributions, per
    node: walk w of origin b adds |c_b|/N / n_b times its visit count, at
    most stepnum + 1, so the contributions have variance at most
    sum_b (|c_b|/N)^2 (stepnum + 1) / n_b * E[visits from b] (one more
    mat-vec pass) and range at most max_b |c_b|/N (stepnum + 1) / n_b. A
    false alarm at any of the N nodes has probability at most 1e-3.
    """
    parts = [preferential_attachment(30000, 3, seed=i) for i in range(3)]
    planted = connect_communities(parts, k=200, seed=0)
    g = planted.graph
    labels = planted.planted_labels
    bset = boundary_edges(g, labels)
    scores = bva(g, labels, bset, WalkConfig(walknum=400, seed=0))
    n, stepnum = g.num_nodes, scores.walk.stepnum
    assert n == 90_000

    inside = g.edges[labels[g.edges[:, 0]] == labels[g.edges[:, 1]]]
    src = np.concatenate([inside[:, 0], inside[:, 1]])
    dst = np.concatenate([inside[:, 1], inside[:, 0]])
    degree = np.bincount(src, minlength=n)

    def propagate(mass):
        total = mass.copy()
        for _ in range(stepnum):
            mass = np.bincount(dst, weights=mass[src] / degree[src], minlength=n)
            total += mass
        return total

    origins = np.array(bset.boundary_nodes)
    used = scores.walkers_used.astype(float)
    share = np.bincount(labels)[labels[origins]] / n
    expected = propagate(np.bincount(origins, weights=share, minlength=n))
    variance = propagate(np.bincount(origins, weights=share**2 * (stepnum + 1) / used,
                                     minlength=n))
    log_term = np.log(2 * n / 1e-3)
    largest_step = np.max(share * (stepnum + 1) / used)
    bound = np.sqrt(2.0 * variance * log_term) + 2.0 / 3.0 * largest_step * log_term
    assert bound.max() < expected.max()  # the check can fail
    assert np.all(np.abs(scores.raw - expected) <= bound)
    assert not np.any(scores.raw[expected == 0])
    # no origin is a dead end and no walk leaves its community, so every walk
    # adds stepnum + 1 visits to its origin's community: each community's mass is exact
    assert degree[origins].min() > 0
    mass = np.bincount(labels, weights=scores.raw)
    assert np.allclose(mass, np.bincount(labels, weights=expected), rtol=1e-12, atol=0)
