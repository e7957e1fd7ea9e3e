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
    connect_communities,
    connected_components,
    default_step_count,
    detect_communities,
    erdos_renyi,
    psrf,
    random_walk,
    run_converged_walks,
    scale_community_weights,
)


def enumerate_visit_moments(mask, start, stepnum):
    """Exact E[visits] and E[visits^2] per node over all neighbor sequences."""
    n = mask.num_nodes
    expected = np.zeros(n)
    second = np.zeros(n)

    def recurse(current, step, visits, prob):
        neighbors = mask.adjacency[current]
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
    visits = random_walk(g, 0, 10, np.random.default_rng(0))
    assert visits.tolist() == [1, 0, 0]


def test_walk_two_node_graph_deterministic():
    g = build_graph(2, [(0, 1)])
    visits = random_walk(g, 0, 3, np.random.default_rng(0))
    assert visits.tolist() == [2, 2]


def test_walk_triangle_mass():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    rng = np.random.default_rng(1)
    for _ in range(50):
        visits = random_walk(g, 0, 2, rng)
        assert visits.sum() == 3  # start + 2 steps, no dead ends


def test_walk_mass_bound_with_dead_ends():
    # path with a pendant: walks die when they hit an isolated-in-mask node
    g = build_graph(4, [(0, 1), (1, 2)])
    rng = np.random.default_rng(2)
    for _ in range(100):
        visits = random_walk(g, 0, 5, rng)
        assert 1 <= visits.sum() <= 6


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
        total += random_walk(g, 0, stepnum, rng)
    mean = total / walks
    sigma = np.sqrt(np.maximum(second - expected**2, 0.0))
    band = 3.0 * sigma / np.sqrt(walks)
    assert np.all(np.abs(mean - expected) <= band + 1e-12)


# --- convergence diagnostic ---


def test_psrf_identical_groups_b_zero():
    rng = np.random.default_rng(0)
    group = rng.integers(0, 5, size=(100, 3))
    batch = WalkBatch(visits=np.vstack([group, group]), origin=0)
    n = 100
    assert psrf(batch, 2) == pytest.approx(np.sqrt((n - 1) / n), abs=1e-12)


def test_psrf_all_identical_walks_degenerate_one():
    batch = WalkBatch(visits=np.tile([1, 2, 0], (40, 1)), origin=0)
    assert psrf(batch, 2) == 1.0


def test_psrf_divergent_means_explodes():
    rng = np.random.default_rng(1)
    low = rng.normal(0.0, 0.01, size=(50, 2))
    high = rng.normal(10.0, 0.01, size=(50, 2))
    batch = WalkBatch(visits=np.vstack([low, high]), origin=0)
    assert psrf(batch, 2) > 1.05


def test_psrf_validates_grouping():
    batch = WalkBatch(visits=np.zeros((10, 2)), origin=0)
    with pytest.raises(ValueError):
        psrf(batch, 1)
    with pytest.raises(ValueError):
        psrf(batch, 3)  # 10 walks not divisible into 3 chains
    with pytest.raises(ValueError):
        psrf(WalkBatch(visits=np.zeros((2, 2)), origin=0), 2)  # chains of 1


def test_converged_walks_isolated_origin_one_batch():
    g = build_graph(2, [])
    batch = run_converged_walks(g, 0, WalkConfig(walknum=10, stepnum=5, seed=0))
    assert batch.converged
    assert batch.batches == 1
    assert batch.num_walks == 10
    assert np.all(batch.visits[:, 0] == 1)


def test_converged_walks_two_node_deterministic_one_batch():
    g = build_graph(2, [(0, 1)])
    batch = run_converged_walks(g, 0, WalkConfig(walknum=8, stepnum=3, seed=0))
    assert batch.converged
    assert batch.batches == 1
    assert np.all(batch.visits == [2, 2])


def test_converged_walks_er_fixed_seed_regression():
    g = erdos_renyi(100, 0.1, seed=5)
    assert len(connected_components(g).components) == 1
    cfg = WalkConfig(walknum=50, stepnum=4, seed=123)
    batch = run_converged_walks(g, 0, cfg)
    assert batch.converged
    assert batch.num_walks == 150  # frozen from the first verified run
    again = run_converged_walks(g, 0, cfg)
    assert again.num_walks == batch.num_walks
    assert np.array_equal(again.visits, batch.visits)


def test_converged_walks_unconverged_is_flagged():
    g = erdos_renyi(100, 0.1, seed=5)
    cfg = WalkConfig(walknum=6, stepnum=4, seed=0, max_batches=2,
                     psrf_low=0.999, psrf_high=1.001)
    batch = run_converged_walks(g, 0, cfg)
    assert not batch.converged
    assert batch.num_walks == 12  # every batch ran, convergence never reached
    assert batch.batches == 2


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
    labeling = detect_communities(two_triangles_bridged, seed=0)
    bset = boundary_edges(two_triangles_bridged, labeling)
    scores = bva(two_triangles_bridged, labeling, bset, WalkConfig(seed=3))
    order = np.argsort(-scores.raw)
    assert set(order[:2].tolist()) == {2, 3}
    assert scores.normalized.max() == 1.0
    assert scores.warning is None


def test_bva_empty_boundary_all_zero(two_triangles_disjoint):
    labeling = detect_communities(two_triangles_disjoint, seed=0)
    bset = boundary_edges(two_triangles_disjoint, labeling)
    assert bset.boundary_nodes == ()
    scores = bva(two_triangles_disjoint, labeling, bset, WalkConfig(seed=0))
    assert np.all(scores.raw == 0.0)
    assert np.all(scores.normalized == 0.0)
    assert scores.warning is not None


def test_bva_deterministic():
    planted = connect_communities(
        [erdos_renyi(40, 0.15, seed=i) for i in range(3)], k=6, seed=0
    )
    g = planted.graph
    labeling = detect_communities(g, seed=1)
    bset = boundary_edges(g, labeling)
    cfg = WalkConfig(seed=42)
    first = bva(g, labeling, bset, cfg)
    second = bva(g, labeling, bset, cfg)
    assert np.array_equal(first.raw, second.raw)
    assert first.walkers_used == second.walkers_used
    assert first.converged == second.converged
    assert first.walk == second.walk == WalkConfig(
        seed=42, stepnum=default_step_count(g.num_nodes)
    )


def test_bva_confinement():
    planted = connect_communities(
        [erdos_renyi(30, 0.2, seed=10 + i) for i in range(2)], k=4, seed=1
    )
    g = planted.graph
    from boundary_vicinity import CommunityLabeling, modularity

    labeling = CommunityLabeling(
        labels=planted.planted_labels,
        modularity=modularity(g, planted.planted_labels),
        num_communities=2,
    )
    bset = boundary_edges(g, labeling)
    scores = bva(g, labeling, bset, WalkConfig(seed=0))
    walked_communities = {bset.home_community[b] for b in bset.boundary_nodes}
    for v in range(g.num_nodes):
        if labeling.labels[v] not in walked_communities:
            assert scores.raw[v] == 0.0


def test_bva_walker_count_invariance():
    g = erdos_renyi(100, 0.1, seed=5)
    from boundary_vicinity import CommunityLabeling

    labeling = CommunityLabeling(labels=(0,) * 100, modularity=0.0, num_communities=1)
    # single community: pick a node as a synthetic boundary origin
    from boundary_vicinity import BoundarySet

    bset = BoundarySet(boundary_edges=(), boundary_nodes=(0,), home_community={0: 0})
    base = bva(g, labeling, bset, WalkConfig(walknum=1000, stepnum=4, seed=9))
    doubled = bva(g, labeling, bset, WalkConfig(walknum=2000, stepnum=4, seed=9))
    assert base.converged[0] and doubled.converged[0]
    drift = np.linalg.norm(base.raw - doubled.raw) / np.linalg.norm(base.raw)
    assert drift < 0.05


def test_bva_scores_match_enumeration_oracle(two_triangles_bridged):
    """Expected scores from the enumeration oracle, scaled like the engine."""
    g = two_triangles_bridged
    from boundary_vicinity import CommunityLabeling, community_mask

    labeling = CommunityLabeling(
        labels=(0, 0, 0, 1, 1, 1), modularity=0.357, num_communities=2
    )
    bset = boundary_edges(g, labeling)
    stepnum = 2
    oracle = np.zeros(6)
    for b in bset.boundary_nodes:
        mask, mapping = community_mask(g, labeling, bset.home_community[b])
        expected, _ = enumerate_visit_moments(mask, mapping[b], stepnum)
        back = {new: old for old, new in mapping.items()}
        for new, value in enumerate(expected):
            oracle[back[new]] += value * mask.num_nodes / g.num_nodes
    scores = bva(g, labeling, bset, WalkConfig(walknum=4000, stepnum=stepnum, seed=1))
    assert np.allclose(scores.raw, oracle, atol=0.02)
    assert set(np.argsort(-oracle)[:2]) == {2, 3}
