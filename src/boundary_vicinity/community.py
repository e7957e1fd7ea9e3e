"""Louvain community detection, modularity, and per-community edge masks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, subgraph

DEFAULT_MIN_MODULARITY_GAIN = 1e-7
# Partitions scoring below this are usually indistinguishable from noise;
# graphs under the threshold are treated as having no community structure.
DEFAULT_Q_THRESHOLD = 0.3


@dataclass(frozen=True)
class CommunityLabeling:
    """A community assignment: dense per-node labels plus its quality score.

    ``quality_trace`` records modularity after each Louvain pass (one local
    optimization sweep plus aggregation), so tests can verify the greedy
    optimization never goes backwards. ``passes`` is its length.
    """

    labels: tuple[int, ...]
    modularity: float
    num_communities: int
    passes: int = 0
    quality_trace: tuple[float, ...] = ()


def modularity(g: Graph, labels: Sequence[int]) -> float:
    """Newman-Girvan modularity Q = sum_c (e_c - a_c^2).

    e_c is the fraction of edges with both endpoints in community c and
    a_c the fraction of edge endpoints in c. Q is 0 for a single community
    covering the whole graph and at most 1.

    Raises ValueError for edgeless graphs (the measure is undefined) or a
    label vector of the wrong length.
    """
    if g.num_edges == 0:
        raise ValueError("modularity is undefined for a graph with no edges")
    if len(labels) != g.num_nodes:
        raise ValueError(f"expected {g.num_nodes} labels, got {len(labels)}")
    m = g.num_edges
    internal: dict[int, int] = {}
    endpoint: dict[int, int] = {}
    for u, v in g.edges:
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


class _LevelGraph:
    """Weighted graph for one Louvain level; aggregated nodes carry self-weights."""

    def __init__(self, num_nodes: int, weights: dict[tuple[int, int], float],
                 self_weights: list[float]):
        self.num_nodes = num_nodes
        self.self_weights = self_weights
        self.neighbors: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
        for (u, v), w in weights.items():
            self.neighbors[u].append((v, w))
            self.neighbors[v].append((u, w))
        # strength counts a self-loop weight twice, matching the matrix form
        self.strength = [
            sum(w for _, w in self.neighbors[i]) + 2.0 * self_weights[i]
            for i in range(num_nodes)
        ]
        self.total_weight = sum(weights.values()) + sum(self_weights)

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        weights = {(u, v): 1.0 for u, v in g.edges}
        return cls(g.num_nodes, weights, [0.0] * g.num_nodes)


def _one_level(level: _LevelGraph, rng: np.random.Generator, min_gain: float) -> list[int]:
    """Greedy local-move phase; returns the per-node community assignment.

    Each sweep visits nodes in a fresh shuffled order and moves a node to
    the neighboring community with the largest modularity gain (ties go to
    the lowest community id). Sweeps repeat while they still improve
    modularity by more than ``min_gain``.
    """
    n = level.num_nodes
    m = level.total_weight
    comm = list(range(n))
    # sum of member strengths per community
    tot = list(level.strength)

    def sweep() -> float:
        gain_sum = 0.0
        order = np.arange(n)
        rng.shuffle(order)
        for i in order:
            i = int(i)
            ci = comm[i]
            k_i = level.strength[i]
            # links from i to each adjacent community
            links: dict[int, float] = {ci: 0.0}
            for j, w in level.neighbors[i]:
                links[comm[j]] = links.get(comm[j], 0.0) + w
            tot[ci] -= k_i
            stay_gain = links[ci] / m - tot[ci] * k_i / (2.0 * m * m)
            best_comm, best_gain = ci, stay_gain
            for c in links:
                if c == ci:
                    continue
                gain = links[c] / m - tot[c] * k_i / (2.0 * m * m)
                if gain > best_gain or (gain == best_gain and c < best_comm):
                    best_comm, best_gain = c, gain
            tot[best_comm] += k_i
            if best_comm != ci:
                comm[i] = best_comm
                gain_sum += best_gain - stay_gain
        return gain_sum

    while True:
        improved = sweep()
        if improved <= min_gain:
            break
    return comm


def _aggregate(level: _LevelGraph, comm: list[int]) -> tuple[_LevelGraph, list[int]]:
    """Phase two: collapse communities into nodes, keeping edge weights."""
    present = sorted(set(comm))
    renumber = {old: new for new, old in enumerate(present)}
    dense = [renumber[c] for c in comm]
    weights: dict[tuple[int, int], float] = {}
    self_w = [0.0] * len(present)
    for i in range(level.num_nodes):
        self_w[dense[i]] += level.self_weights[i]
        for j, w in level.neighbors[i]:
            if j < i:
                continue
            ci, cj = dense[i], dense[j]
            if ci == cj:
                self_w[ci] += w
            else:
                key = (ci, cj) if ci < cj else (cj, ci)
                weights[key] = weights.get(key, 0.0) + w
    return _LevelGraph(len(present), weights, self_w), dense


def _weighted_modularity(level: _LevelGraph, comm: list[int]) -> float:
    m = level.total_weight
    internal: dict[int, float] = {}
    tot: dict[int, float] = {}
    for i in range(level.num_nodes):
        internal[comm[i]] = internal.get(comm[i], 0.0) + level.self_weights[i]
        tot[comm[i]] = tot.get(comm[i], 0.0) + level.strength[i]
        for j, w in level.neighbors[i]:
            if j > i and comm[j] == comm[i]:
                internal[comm[i]] = internal.get(comm[i], 0.0) + w
    q = 0.0
    for c in tot:
        q += internal.get(c, 0.0) / m - (tot[c] / (2.0 * m)) ** 2
    return q


def detect_communities(
    g: Graph,
    seed: int = 0,
    min_modularity_gain: float = DEFAULT_MIN_MODULARITY_GAIN,
) -> CommunityLabeling:
    """Two-phase greedy Louvain decomposition of ``g``.

    Alternates a local-move sweep phase with community aggregation until a
    full pass improves modularity by less than ``min_modularity_gain``.
    Node visit order is shuffled by ``seed``; given the same graph and seed
    the result is identical run to run. Disconnected graphs are accepted.

    Louvain can leave a community in pieces with no edge between them
    (Traag, Waltman & van Eck 2019). Each connected piece becomes its own
    community, which never lowers modularity, so every returned community
    is connected. Labels are numbered by first occurrence in node order.

    Raises ValueError for edgeless graphs, where modularity is undefined.
    """
    if g.num_nodes < 1:
        raise ValueError("graph must have at least one node")
    if g.num_edges == 0:
        raise ValueError("community detection is undefined for a graph with no edges")
    rng = np.random.default_rng(seed)
    level = _LevelGraph.from_graph(g)
    assignment = list(range(g.num_nodes))
    trace: list[float] = []
    prev_q = _weighted_modularity(level, list(range(level.num_nodes)))
    while True:
        comm = _one_level(level, rng, min_modularity_gain)
        level, dense = _aggregate(level, comm)
        assignment = [dense[comm_i] for comm_i in (comm[a] for a in assignment)]
        q = _weighted_modularity(level, list(range(level.num_nodes)))
        trace.append(q)
        if q - prev_q < min_modularity_gain:
            break
        prev_q = q

    # label the connected pieces of each community, in first-occurrence order
    labels = [-1] * g.num_nodes
    count = 0
    for start in range(g.num_nodes):
        if labels[start] >= 0:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if labels[w] < 0 and assignment[w] == assignment[start]:
                    labels[w] = count
                    stack.append(w)
        count += 1
    final_q = modularity(g, labels)
    return CommunityLabeling(
        labels=tuple(labels),
        modularity=final_q,
        num_communities=count,
        passes=len(trace),
        quality_trace=tuple(trace),
    )


def community_mask(
    g: Graph, labeling: CommunityLabeling, c: int
) -> tuple[Graph, dict[int, int]]:
    """Subgraph of community ``c`` containing only its internal edges.

    Edges with one endpoint outside the community are removed, so members
    whose links all cross community lines appear as isolated nodes. Returns
    the masked graph and the old-to-new id mapping.
    """
    if not (0 <= c < labeling.num_communities):
        raise ValueError(f"unknown community id {c}")
    members = [v for v in range(g.num_nodes) if labeling.labels[v] == c]
    return subgraph(g, members)
