"""Louvain community detection, modularity, and the community-confined walk graph."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# subgraph is not called here; bench/tracing.py wraps it as a community attribute
from .graph import Graph, component_roots, subgraph

DEFAULT_MIN_MODULARITY_GAIN = 1e-7
# Partitions scoring below this are usually indistinguishable from noise;
# graphs under the threshold are treated as having no community structure.
DEFAULT_Q_THRESHOLD = 0.3
# Level graphs with at least this many nodes take the colour-class move; below
# it numpy's fixed cost per call makes the queue move faster (see README).
COLOUR_MOVE_MIN_NODES = 4000


@dataclass(frozen=True, eq=False)
class CommunityLabeling:
    """A community assignment: dense per-node labels plus its quality score.

    ``labels`` is a read-only int64 array, one label per node; any sequence
    of ints is accepted and converted once. ``quality_trace`` records
    modularity after each Louvain pass (one queue-driven local-move phase
    plus aggregation), so tests can verify the greedy optimization never
    goes backwards. ``passes`` is its length.
    ``local_moves`` counts the nodes popped from the local-move queues,
    summed over passes.
    """

    labels: np.ndarray
    modularity: float
    num_communities: int
    passes: int = 0
    quality_trace: tuple[float, ...] = ()
    local_moves: int = 0

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        self.labels.flags.writeable = False


def modularity(g: Graph, labels: Sequence[int]) -> float:
    """Newman-Girvan modularity Q = sum_c (e_c - a_c^2).

    e_c is the fraction of edges with both endpoints in community c and
    a_c the fraction of edge endpoints in c. Q is 0 for a single community
    covering the whole graph and at most 1. The terms are added one at a
    time, in order of each community's first endpoint in ``g.edges``.

    Raises ValueError for edgeless graphs (the measure is undefined) or a
    label vector of the wrong length.
    """
    if g.num_edges == 0:
        raise ValueError("modularity is undefined for a graph with no edges")
    if len(labels) != g.num_nodes:
        raise ValueError(f"expected {g.num_nodes} labels, got {len(labels)}")
    m = g.num_edges
    _, first, comm = np.unique(np.asarray(labels)[g.edges].ravel(), return_index=True,
                               return_inverse=True)
    pair = comm.reshape(-1, 2)
    internal = np.bincount(pair[pair[:, 0] == pair[:, 1], 0], minlength=len(first))
    share = np.bincount(comm, minlength=len(first)) / (2 * m)
    terms = internal / m - share * share
    return float(np.cumsum(terms[np.argsort(first)])[-1])


class _LevelGraph:
    """Weighted graph for one Louvain level; aggregated nodes carry self-weights.

    Built from node pairs (K, 2) with weights, each pair once. A node's
    neighbours, ``neighbors[indptr[i]:indptr[i + 1]]`` with ``weights``
    alongside, come in pair order, the order the local-move queue appends
    them in. Every weight is an integer-valued float, so every sum of
    weights is exact in any order.
    """

    def __init__(self, num_nodes: int, pairs: np.ndarray, pair_weights: np.ndarray,
                 self_weights: np.ndarray):
        self.num_nodes = num_nodes
        self.self_weights = self_weights
        ends = pairs.ravel()
        end_weights = np.repeat(pair_weights, 2)
        order = np.argsort(ends, kind="stable")
        self.indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=num_nodes), out=self.indptr[1:])
        self.neighbors = pairs[:, ::-1].ravel()[order]
        self.weights = end_weights[order]
        # strength counts a self-loop weight twice, matching the matrix form
        self.strength = (np.bincount(ends, weights=end_weights, minlength=num_nodes)
                         + 2.0 * self_weights)
        self.total_weight = float(pair_weights.sum() + self_weights.sum())

    @classmethod
    def from_graph(cls, g: Graph) -> "_LevelGraph":
        return cls(g.num_nodes, g.edges, np.ones(g.num_edges), np.zeros(g.num_nodes))


def _one_level(level: _LevelGraph, rng: np.random.Generator) -> tuple[list[int], int]:
    """Leiden's fast local move; returns each node's community and the number of pops.

    Nodes start alone, queued in an order shuffled by ``rng``. A popped node
    moves to the neighboring community with the largest modularity gain (ties
    go to the lowest community id; staying counts as its own community) and,
    if it moved, queues its unqueued neighbors outside its new community.
    """
    n = level.num_nodes
    m = level.total_weight
    indptr = level.indptr.tolist()
    neighbors = level.neighbors.tolist()
    weights = level.weights.tolist()
    strength = level.strength.tolist()
    comm = list(range(n))
    # sum of member strengths per community
    tot = list(strength)
    order = np.arange(n)
    rng.shuffle(order)
    queue = deque(order.tolist())
    queued = [True] * n
    pops = 0
    while queue:
        i = queue.popleft()
        queued[i] = False
        pops += 1
        ci = comm[i]
        k_i = strength[i]
        start, end = indptr[i], indptr[i + 1]
        around = neighbors[start:end]
        # links from i to each adjacent community
        links: dict[int, float] = {ci: 0.0}
        for j, w in zip(around, weights[start:end]):
            links[comm[j]] = links.get(comm[j], 0.0) + w
        tot[ci] -= k_i
        best_comm = ci
        best_gain = links[ci] / m - tot[ci] * k_i / (2.0 * m * m)
        for c in links:
            if c == ci:
                continue
            gain = links[c] / m - tot[c] * k_i / (2.0 * m * m)
            if gain > best_gain or (gain == best_gain and c < best_comm):
                best_comm, best_gain = c, gain
        tot[best_comm] += k_i
        if best_comm != ci:
            comm[i] = best_comm
            for j in around:
                if not queued[j] and comm[j] != best_comm:
                    queued[j] = True
                    queue.append(j)
    return comm, pops


def _rows(level: _LevelGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``nodes``' CSR entries, row after row, and each entry's row index."""
    starts = level.indptr[nodes]
    counts = level.indptr[nodes + 1] - starts
    row = np.repeat(np.arange(len(nodes)), counts)
    return np.arange(len(row)) + (starts - (np.cumsum(counts) - counts))[row], row


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``a`` begins."""
    begins = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=begins[1:])
    return np.flatnonzero(begins)


def _colour_classes(level: _LevelGraph, rng: np.random.Generator) -> list[np.ndarray]:
    """A distance-1 colouring by Jones-Plassmann rounds, one array of nodes per class.

    Each round's class is every uncoloured node whose priority beats all its
    uncoloured neighbours'. The priority ``degree * n + rng.permutation(n)``
    is distinct per node and puts the largest degree first.
    """
    n = level.num_nodes
    degree = np.diff(level.indptr)
    priority = degree * n + rng.permutation(n)
    rows = np.repeat(np.arange(n), degree)
    # every edge once, as (its outranked end, its outranking end)
    lower = priority[rows] < priority[level.neighbors]
    losers, winners_of = rows[lower], level.neighbors[lower]
    uncoloured = np.ones(n, dtype=bool)
    classes = []
    while uncoloured.any():
        blocked = np.zeros(n, dtype=bool)
        blocked[losers] = True
        members = np.flatnonzero(uncoloured & ~blocked)
        classes.append(members)
        uncoloured[members] = False
        keep = uncoloured[winners_of]
        losers, winners_of = losers[keep], winners_of[keep]
    return classes


def _colour_level(level: _LevelGraph, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """The local move one colour class at a time; returns each node's community and
    the number of nodes evaluated.

    Nodes start alone and active. Each sweep takes the classes of
    ``_colour_classes`` in order and moves all active members of a class at
    once, each seeing the community totals as they stood before the class
    moved: to the neighbouring community with the largest modularity gain,
    ties to the lowest community id, staying counting as its own community.
    No two members of a class are adjacent, so no mover's links change with
    another's move. A mover wakes its neighbours outside its new community.
    The move ends at a sweep that finds no active node.
    """
    n = level.num_nodes
    m = level.total_weight
    strength = level.strength
    comm = np.arange(n)
    tot = strength.copy()
    active = np.ones(n, dtype=bool)
    classes = _colour_classes(level, rng)
    evaluated = 0
    while active.any():
        for members in classes:
            nodes = members[active[members]]
            if not len(nodes):
                continue
            active[nodes] = False
            evaluated += len(nodes)
            own = comm[nodes]
            at, row = _rows(level, nodes)
            # a key per (node, adjacent community), and one for its own community at weight 0
            keys = (np.concatenate([row, np.arange(len(nodes))]) * n
                    + np.concatenate([comm[level.neighbors[at]], own]))
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = _run_starts(keys)
            links = np.add.reduceat(np.concatenate([level.weights[at],
                                                    np.zeros(len(nodes))])[order], first)
            row, c = np.divmod(keys[first], n)
            k_i = strength[nodes][row]
            gain = links / m - (tot[c] - k_i * (c == own[row])) * k_i / (2.0 * m * m)
            # each node's largest gain; keys run by community within a node, so the
            # first key that reaches it has the lowest community id
            top = np.maximum.reduceat(gain, _run_starts(row))
            hit = np.flatnonzero(gain == top[row])
            best = c[hit[_run_starts(row[hit])]]
            moved = best != own
            if not moved.any():
                continue
            movers, target = nodes[moved], best[moved]
            np.subtract.at(tot, own[moved], strength[movers])
            np.add.at(tot, target, strength[movers])
            comm[movers] = target
            at, row = _rows(level, movers)
            around = level.neighbors[at]
            active[around[comm[around] != target[row]]] = True
    return comm, evaluated


def _aggregate(level: _LevelGraph, comm: Sequence[int]) -> tuple[_LevelGraph, np.ndarray]:
    """Phase two: collapse communities into nodes, keeping edge weights.

    Communities are renumbered densely in ascending order. Each pair of
    linked communities becomes one weighted pair, ordered by where it is
    first met in a scan of every level pair (i, j > i) in neighbour order.
    """
    present, dense = np.unique(comm, return_inverse=True)
    k = len(present)
    rows = np.repeat(np.arange(level.num_nodes), np.diff(level.indptr))
    upper = level.neighbors > rows
    ci, cj = dense[rows[upper]], dense[level.neighbors[upper]]
    w = level.weights[upper]
    inside = ci == cj
    self_weights = (np.bincount(dense, weights=level.self_weights, minlength=k)
                    + np.bincount(ci[inside], weights=w[inside], minlength=k))
    ci, cj, w = ci[~inside], cj[~inside], w[~inside]
    keys, first, pair = np.unique(np.minimum(ci, cj) * k + np.maximum(ci, cj),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    pairs = np.stack(np.divmod(keys[order], k), axis=1)
    pair_weights = np.bincount(pair, weights=w, minlength=len(keys))[order]
    return _LevelGraph(k, pairs, pair_weights, self_weights), dense


def _weighted_modularity(level: _LevelGraph) -> float:
    """Modularity of the partition with each level node in its own community."""
    m = level.total_weight
    return float(np.sum(level.self_weights / m - (level.strength / (2.0 * m)) ** 2))


def detect_communities(g: Graph, seed: int = 0) -> CommunityLabeling:
    """Two-phase greedy Louvain decomposition of ``g``.

    Alternates a local-move phase with community aggregation until a pass
    improves modularity by less than ``DEFAULT_MIN_MODULARITY_GAIN``. A
    level graph below ``COLOUR_MOVE_MIN_NODES`` nodes takes the queue move
    (``_one_level``), a larger one the colour-class move (``_colour_level``).
    Each level's queue order or colouring is drawn from ``seed``; given the
    same graph and seed the result is identical run to run. Disconnected
    graphs are accepted.

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
    assignment = np.arange(g.num_nodes)
    trace: list[float] = []
    prev_q = _weighted_modularity(level)
    local_moves = 0
    while True:
        move = _colour_level if level.num_nodes >= COLOUR_MOVE_MIN_NODES else _one_level
        comm, evaluated = move(level, rng)
        local_moves += evaluated
        level, dense = _aggregate(level, comm)
        assignment = dense[assignment]
        q = _weighted_modularity(level)
        trace.append(q)
        if q - prev_q < DEFAULT_MIN_MODULARITY_GAIN:
            break
        prev_q = q

    # the connected pieces of each community, numbered in node order of their smallest member
    inside = assignment[g.edges[:, 0]] == assignment[g.edges[:, 1]]
    _, labels = np.unique(component_roots(g.num_nodes, g.edges[inside]), return_inverse=True)
    count = int(labels.max()) + 1
    final_q = modularity(g, labels)
    return CommunityLabeling(
        labels=labels,
        modularity=final_q,
        num_communities=count,
        passes=len(trace),
        quality_trace=tuple(trace),
        local_moves=local_moves,
    )


def community_mask(g: Graph, labels: np.ndarray) -> Graph:
    """The walk graph: ``g`` without its cross-community edges, in ``g``'s node ids.

    ``labels`` holds one community label per node, as an int array. Its
    edges are the rows of ``g.edges`` whose endpoints share a label, in
    ``g``'s order. A walk on it never leaves its start's community. Members
    whose links all cross community lines become isolated nodes.
    """
    keep = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    return Graph(g.num_nodes, g.edges[keep], names=g.names)
