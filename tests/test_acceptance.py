"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import itertools
import math
import time

import numpy as np

from boundary_vicinity import (
    WalkConfig,
    betweenness_brandes,
    bin_events,
    boundary_edges,
    build_graph,
    bva,
    community_mask,
    connect_communities,
    connected_components,
    control_series,
    detect_communities,
    detect_spikes,
    erdos_renyi,
    preferential_attachment,
    rank_overlap,
)
from boundary_vicinity.cli import main
from boundary_vicinity.walker import psrf, random_walk
from conftest import random_connected_graph
from reference import betweenness_bruteforce, top_k_nodes
from test_walker import enumerate_visit_moments


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def connected_er(n: int, p: float, seed_start: int):
    seed = seed_start
    while True:
        g = erdos_renyi(n, p, seed=seed)
        if len(connected_components(g).components) == 1:
            return g
        seed += 1


def planted_experiment(kind: str, seed: int):
    """The three-community stitched network with ground-truth labels."""
    if kind == "er":
        parts = [connected_er(100, 0.06, 1000 * seed + 100 * i) for i in range(3)]
    else:
        parts = [
            preferential_attachment(100, 2, seed=1000 * seed + 100 * i)
            for i in range(3)
        ]
    planted = connect_communities(parts, k=26, seed=seed)
    g = planted.graph
    bset = boundary_edges(g, planted.planted_labels)
    scores = bva(g, planted.planted_labels, bset, WalkConfig(seed=seed))
    return planted, scores, betweenness_brandes(g)


def test_criterion_1_betweenness_oracle_equivalence(karate):
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        g = random_connected_graph(rng, max_nodes=8)
        gap = np.abs(betweenness_brandes(g) - betweenness_bruteforce(g)).max()
        worst = max(worst, float(gap))
    karate_gap = np.abs(
        betweenness_brandes(karate) - betweenness_bruteforce(karate)
    ).max()
    worst = max(worst, float(karate_gap))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok,
           f"brandes vs brute force on 200 random graphs + karate: "
           f"max gap {worst:.2e} (tol 1e-9), runtime {elapsed:.1f}s (limit 10s)")


def test_criterion_2_planted_er_recovery():
    start = time.perf_counter()
    recoveries, overlaps = [], []
    for seed in range(10):
        planted, scores, bw = planted_experiment("er", seed)
        top_bva = set(top_k_nodes(scores.raw, 26))
        recoveries.append(len(top_bva & set(planted.planted_boundary)) / 26)
        overlaps.append(rank_overlap(scores.raw, bw, [26])[0])
    mean_recovery = float(np.mean(recoveries))
    mean_overlap = float(np.mean(overlaps))
    elapsed = time.perf_counter() - start
    ok = mean_recovery >= 0.85 and mean_overlap >= 0.8 and elapsed < 60.0
    report(2, ok,
           f"planted 3xER(100,0.06) k=26 over 10 seeds: "
           f"mean top-26 recovery {mean_recovery:.3f} (need >=0.85), "
           f"mean rank overlap@26 {mean_overlap:.3f} (need >=0.8), "
           f"runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_3_karate_peak_property(karate):
    """The overlap curve peaks near |B|, averaged over Louvain seeds 0-7.

    On karate one node moves the proportion at k by 1/k, so a single seed's
    argmax over small k lands on spikes such as 1.00 at k = 3. The argmax is
    therefore taken over k in [5, 20], where one node moves it by at most 0.2.
    """
    bw = betweenness_brandes(karate)
    ks = list(range(2, 21))
    curves, sizes, qs = [], [], []
    for seed in range(8):
        labeling = detect_communities(karate, seed=seed)
        bset = boundary_edges(karate, labeling.labels)
        scores = bva(karate, labeling.labels, bset, WalkConfig(seed=seed))
        curves.append(rank_overlap(scores.raw, bw, ks))
        sizes.append(len(bset.boundary_nodes))
        qs.append(labeling.modularity)
    lo = ks.index(5)
    argmax_k = ks[lo + int(np.argmax(np.mean(curves, axis=0)[lo:]))]
    seed1_k = ks[int(np.argmax(curves[1]))]
    median_b = float(np.median(sizes))
    ok = abs(argmax_k - median_b) <= 3 and min(qs) >= 0.35
    report(3, ok,
           f"karate (louvain seeds 0-7): mean overlap argmax over k in [5, 20] "
           f"k={argmax_k} vs median |B|={median_b:g} (need within +-3), "
           f"min Q={min(qs):.4f} (need >=0.35); seed 1 argmax over k in [2, 20] "
           f"k={seed1_k}")


def test_criterion_4_pa_divergence_property():
    present = []
    for seed in range(10):
        planted, scores, bw = planted_experiment("pa", seed)
        top_bva = set(top_k_nodes(scores.raw, 26))
        top_bw = set(top_k_nodes(bw, 26))
        divergent = (top_bva - top_bw) & set(planted.planted_boundary)
        present.append(bool(divergent))
    presence = float(np.mean(present))
    ok = presence >= 0.5
    report(4, ok,
           f"planted 3xPA(100,m=2) k=26 over 10 seeds: boundary node in BVA "
           f"top-26 but outside betweenness top-26 present in {presence:.0%} "
           f"of seeds (need >=50%)")


def test_criterion_5_walker_correctness():
    graphs = {
        "path5": build_graph(5, [(i, i + 1) for i in range(4)]),
        "cycle6": build_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
        "star7": build_graph(7, [(0, i) for i in range(1, 7)]),
        "k4": build_graph(4, list(itertools.combinations(range(4), 2))),
        "bridge6": build_graph(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        ),
        "tree7": build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
        "lollipop8": build_graph(
            8, list(itertools.combinations(range(4), 2))
            + [(3, 4), (4, 5), (5, 6), (6, 7)]
        ),
        "dense8": build_graph(
            8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u + v) % 3]
        ),
    }
    walks = 100_000
    rng = np.random.default_rng(20240801)
    worst_ratio = 0.0
    for name, g in graphs.items():
        for stepnum in (2, 4):
            expected, second = enumerate_visit_moments(g, 0, stepnum)
            total = np.zeros(g.num_nodes)
            for _ in range(walks):
                total += np.bincount(random_walk(g, 0, stepnum, rng), minlength=g.num_nodes)
            mean = total / walks
            sigma = np.sqrt(np.maximum(second - expected**2, 0.0))
            band = 3.0 * sigma / np.sqrt(walks)
            err = np.abs(mean - expected)
            assert np.all(err <= band + 1e-12), (name, stepnum)
            ratio = np.max(np.where(band > 0, err / np.maximum(band, 1e-30), 0.0))
            worst_ratio = max(worst_ratio, float(ratio))

    # confinement: a walk never leaves its origin's home community
    parts = [connected_er(80, 0.08, 100 * i) for i in range(2)]
    planted = connect_communities(parts, k=8, seed=0)
    g = planted.graph
    labels = planted.planted_labels
    bset = boundary_edges(g, labels)
    steps_checked = 0
    violations = 0
    walk_rng = np.random.default_rng(7)
    stepnum = 20
    mask = community_mask(g, labels)
    while steps_checked < 1_000_000:
        for b in bset.boundary_nodes.tolist():
            home = labels[b]
            path = random_walk(mask, b, stepnum, walk_rng)
            steps_checked += len(path) - 1
            for v in np.unique(path):
                if labels[v] != home:
                    violations += 1
    ok = violations == 0
    report(5, ok,
           f"sampled means within 3 SE of enumeration oracle on 8 graphs x "
           f"2 step counts, 1e5 walks (worst |err|/band {worst_ratio:.2f}); "
           f"confinement over {steps_checked} steps: {violations} violations")


def test_criterion_6_psrf_formula():
    rng = np.random.default_rng(0)
    group = rng.integers(0, 5, size=(100, 3))
    b_zero = psrf(np.vstack([group, group]))
    b_zero_ok = abs(b_zero - math.sqrt(99 / 100)) <= 1e-12

    degenerate = psrf(np.tile([2, 1, 0], (40, 1)))
    degenerate_ok = degenerate == 1.0

    low = rng.normal(0.0, 0.01, size=(50, 2))
    high = rng.normal(10.0, 0.01, size=(50, 2))
    divergent = psrf(np.vstack([low, high]))
    divergent_ok = divergent > 1.05

    ok = b_zero_ok and degenerate_ok and divergent_ok
    report(6, ok,
           f"psrf: identical-chain degenerate={degenerate} (need exactly 1), "
           f"B=0 case {b_zero:.12f} vs sqrt(99/100) +-1e-12, "
           f"divergent case {divergent:.1f} > 1.05")


def test_criterion_7_temporal_spike_reproduction():
    boundary = set(range(12))
    background = list(range(12, 40))
    events = []
    stamp_rng = np.random.default_rng(3)
    # noisy background: 8-12 events per window from non-boundary nodes
    for w in range(20):
        count = 8 + int(stamp_rng.integers(0, 5))
        for i in range(count):
            node = background[int(stamp_rng.integers(len(background)))]
            events.append((w * 60 + 1 + int(stamp_rng.integers(58)), node))
    # window 13: boundary nodes produce >= 80% of the events
    for i, b in enumerate(sorted(boundary)):
        for r in range(5):
            events.append((13 * 60 + 1 + (5 * i + r) % 58, b))
    series = bin_events(events, 60)
    total_spikes = detect_spikes(series.totals, z_threshold=3.0)
    boundary_spikes = detect_spikes(series.actives(boundary), z_threshold=3.0)
    same_window = (13 in total_spikes.spike_windows
                   and 13 in boundary_spikes.spike_windows)

    num_nodes = len(boundary) + len(background)
    control_a = control_series(series, boundary, num_nodes, seed=5)
    control_b = control_series(series, boundary, num_nodes, seed=5)
    deterministic = np.array_equal(control_a, control_b)
    ok = same_window and deterministic
    report(7, ok,
           f"boundary-driven burst window 13 flagged by totals "
           f"{total_spikes.spike_windows} and boundary actives "
           f"{boundary_spikes.spike_windows} at z>=3; control series "
           f"deterministic under fixed seed: {deterministic}")


def test_criterion_8_determinism_across_threads(tmp_path):
    gen = tmp_path / "gen"
    assert main(["generate", "planted", "--n", "50", "--p", "0.12", "--k", "6",
                 "--seed", "2", "--out", str(gen)]) == 0
    payloads = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main([
            "pipeline", "--input", str(gen / "graph.edges"), "--out", str(out),
            "--seed", "17", "--threads", str(threads),
        ])
        assert code == 0
        payloads.append((out / "scores.csv").read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report(8, ok,
           f"pipeline score CSVs byte-identical at 1, 2, 8 threads: {ok} "
           f"({len(payloads[0])} bytes)")
