"""Shortest-path betweenness (Brandes) and top-k rank overlap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph

# betweenness_brandes' sources per block times (nodes + CSR entries)
_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class OverlapCurve:
    """Top-k agreement between two score vectors for each requested k."""

    ks: tuple[int, ...]
    proportions: tuple[float, ...]


def betweenness_brandes(g: Graph) -> np.ndarray:
    """Exact betweenness via per-source dependency accumulation (Brandes).

    For each node v the score is the sum over unordered node pairs (i, j),
    i != v != j, of the fraction of i-j geodesics passing through v.
    Unreachable pairs contribute nothing.

    Sources are taken in blocks of ``_BLOCK_ENTRIES // (n + 2m)`` (at least
    one), which bounds a block's working set: one source reaches at most n
    nodes over 2m CSR entries. A block runs as one BFS over that many
    disjoint copies of the graph, source r in copy r (see
    ``_block_dependencies``). Each source's dependencies are added into the
    scores in source order, and every sum runs in the order of a per-source
    BFS over ascending neighbours, so the result does not depend on the
    block size. Geodesic counts are float64, exact up to 2^53.
    """
    n = g.num_nodes
    indptr, indices = g.csr
    block = max(1, _BLOCK_ENTRIES // max(1, n + len(indices)))
    # copy r holds node v as r * n + v
    copies = np.arange(min(block, n))[:, None]
    copy_indptr = np.append((copies * len(indices) + indptr[:-1]).ravel(),
                            len(copies) * len(indices))
    copy_indices = (copies * n + indices).ravel()
    scores = np.zeros(n)
    for first in range(0, n, block):
        sources = np.arange(first, min(first + block, n))
        delta = _block_dependencies(copy_indptr, copy_indices,
                                    np.arange(len(sources)) * n + sources)
        for row in delta.reshape(-1, n)[:len(sources)]:
            scores += row
    # per-source accumulation counts each unordered pair twice
    return scores / 2.0


def _block_dependencies(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Brandes dependency of every node on the source of its component.

    No two sources may share a component. Level-synchronous BFS from all
    sources at once (Bader & Madduri, ICPP 2006): one gather expands a whole
    level, and ``place`` holds each discovered node's position in its
    level's frontier (-1 while unseen). Within a component the frontier
    keeps BFS order: first discovery in (frontier order, ascending
    neighbour) order. Only the entries that reach an unseen node (the BFS
    DAG edges) are kept, and geodesic counts are summed over them per level
    with ``np.bincount``. Going back up, a level's contributions reach
    ``bincount`` in reversed BFS order of the child, the order in which a
    per-source loop over the reversed BFS order adds them, so every float
    sum matches that loop. A child's parents are distinct, so only the
    order between children matters, and a stable radix sort on a 16-bit key
    gives it while a level has at most 2^16 nodes. A source's own entry
    stays 0.
    """
    degree = np.diff(indptr)
    place = np.full(len(degree), -1)
    place[sources] = np.arange(len(sources))
    keys = sources
    frontiers = [keys]
    sigma = np.ones(len(keys))
    links = []  # per level below the sources: parent, child, sigma[parent] / sigma[child]
    while True:
        count = degree[keys]
        ends = np.cumsum(count)
        entry = np.repeat(indptr[keys] - ends + count, count)
        entry += np.arange(len(entry))
        found = indices[entry]
        fresh = np.flatnonzero(place[found] < 0)
        if not len(fresh):
            break
        found = found[fresh]
        parent = np.repeat(np.arange(len(keys)), count)[fresh]
        # edge ids below the unseen -1, so each found node keeps its first edge
        edge = np.arange(-len(found), 0)
        np.minimum.at(place, found, edge)
        keys = found.compress(place[found] == edge)
        place[keys] = np.arange(len(keys))
        child = place[found]
        weight = sigma[parent]
        sigma = np.bincount(child, weights=weight, minlength=len(keys))
        frontiers.append(keys)
        links.append((parent, child, weight / sigma[child]))
    delta = np.zeros(len(degree))
    below = np.zeros(len(keys))
    for level in range(len(links), 0, -1):
        parent, child, ratio = links[level - 1]
        share = ratio * (1.0 + below)[child]
        if len(below) <= 1 << 16:  # inverted, so children come in descending order
            back = np.argsort(np.invert(child.astype(np.uint16)), kind="stable")
        else:
            back = np.argsort(-child)
        delta[frontiers[level]] = below
        below = np.bincount(parent[back], weights=share[back],
                            minlength=len(frontiers[level - 1]))
    return delta


def rank_overlap(a: Sequence[float], b: Sequence[float], ks: Sequence[int]) -> OverlapCurve:
    """Proportion of shared members between the two top-k sets, per k.

    A top-k set holds the first k node ids in the order of descending
    score, then ascending id. Symmetric in (a, b) and invariant under
    strictly monotone transforms of either vector, since only the induced
    rankings matter. Each vector is ranked once: a node is in both top-k
    sets exactly when the worse of its two ranks is below k.
    """
    if len(a) != len(b):
        raise ValueError(f"score vectors differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    for k in ks:
        if not (0 < k <= n):
            raise ValueError(f"k must be in [1, {n}], got {k}")
    ranks = []
    for scores in (a, b):
        values = np.asarray(scores, dtype=float)
        rank = np.empty(n, dtype=np.intp)
        rank[np.lexsort((np.arange(n), -values))] = np.arange(n)
        ranks.append(rank)
    shared = np.cumsum(np.bincount(np.maximum(*ranks), minlength=n))
    return OverlapCurve(
        ks=tuple(int(k) for k in ks),
        proportions=tuple(int(shared[k - 1]) / k for k in ks),
    )
