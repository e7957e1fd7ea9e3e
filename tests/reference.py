"""Reference definitions the tests compare the package against.

Each one is written for clarity, one node or one walk at a time, and
shares no code with the routine it checks: brute-force betweenness for
``centrality.betweenness_brandes``, the per-k top-k set for
``centrality.rank_overlap``, and one numpy ``Philox`` generator per walk
for the walker's array Philox.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from boundary_vicinity import Graph

BRUTEFORCE_NODE_LIMIT = 200


def _bfs_counts(g: Graph, source: int) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """BFS from source: visit order, distances, geodesic counts, predecessors."""
    indptr, indices = (a.tolist() for a in g.csr)
    dist = [-1] * g.num_nodes
    sigma = [0] * g.num_nodes
    preds: list[list[int]] = [[] for _ in range(g.num_nodes)]
    dist[source] = 0
    sigma[source] = 1
    order: list[int] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in indices[indptr[u]:indptr[u + 1]]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
            if dist[w] == dist[u] + 1:
                sigma[w] += sigma[u]
                preds[w].append(u)
    return order, dist, sigma, preds


def betweenness_bruteforce(g: Graph) -> np.ndarray:
    """Independent betweenness oracle by explicit path-count convolution.

    Builds the full all-pairs distance and geodesic-count matrices with one BFS
    per node, then for every unordered pair (s, t) credits each interior
    vertex v on a geodesic with sigma(s,v) * sigma(v,t) / sigma(s,t).
    Guarded to small graphs; quadratic memory and cubic time.
    """
    n = g.num_nodes
    if n > BRUTEFORCE_NODE_LIMIT:
        raise ValueError(f"brute-force betweenness limited to {BRUTEFORCE_NODE_LIMIT} nodes")
    dist = np.full((n, n), -1, dtype=np.int64)
    sigma = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        _, d, counts, _ = _bfs_counts(g, s)
        dist[s] = d
        sigma[s] = counts
    scores = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            if dist[s, t] < 0:
                continue
            on_geodesic = (dist[s] >= 0) & (dist[s] + dist[t] == dist[s, t])
            on_geodesic[s] = on_geodesic[t] = False
            through = sigma[s] * sigma[t]
            scores[on_geodesic] += through[on_geodesic] / sigma[s, t]
    return scores


def top_k_nodes(scores: Sequence[float], k: int) -> list[int]:
    """Top k node ids by descending score, ties broken by ascending id."""
    values = np.asarray(scores, dtype=float)
    if not (0 < k <= len(values)):
        raise ValueError(f"k must be in [1, {len(values)}], got {k}")
    order = np.lexsort((np.arange(len(values)), -values))
    return [int(v) for v in order[:k]]


def _walk_rng(seed: int, origin: int, walk_index: int) -> np.random.Generator:
    """Counter-keyed generator: one independent stream per individual walk.

    Scheduling cannot perturb results because a walk's randomness depends
    only on (seed, origin, walk index), never on execution order.
    """
    key = np.array(
        [seed % (1 << 64), ((origin & 0xFFFFFFFF) << 32) | (walk_index & 0xFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
