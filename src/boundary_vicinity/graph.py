"""Undirected simple graph as int64 arrays, edge-list parsing, and connectivity."""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

import numpy as np


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    Node ids are dense integers in [0, num_nodes). ``edges`` is a read-only
    (M, 2) int64 array holding each undirected edge once as a (u, v) row
    with u < v, in input order. ``names`` holds each node's token, by dense
    id: the token read from the file, or ``str(v)`` for a generated graph.
    ``csr`` is the adjacency as arrays, built on first use.
    """

    num_nodes: int
    edges: np.ndarray
    names: tuple[str, ...]
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    def __post_init__(self):
        self.edges.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``, read-only int64: the neighbours of v are
        ``indices[indptr[v]:indptr[v + 1]]``, in ascending order."""
        n = self.num_nodes
        ends = self.edges.ravel()
        # one sort of node * n + neighbour groups rows by node, neighbours ascending
        keys = np.sort(ends * n + self.edges[:, ::-1].ravel())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        indices = keys % n
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices


@dataclass(frozen=True, eq=False)
class ComponentPartition:
    """Connected components: per-node component id plus the member arrays.

    ``components`` is ordered by descending size, ties broken by smallest
    member id; each entry is an ascending array of node ids.
    ``component_id[v]`` is the index of v's entry in ``components``. All
    arrays are read-only int64.
    """

    component_id: np.ndarray
    components: tuple[np.ndarray, ...]


def build_graph(num_nodes: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> Graph:
    """Assemble a Graph from already-dense node ids, validating simplicity.

    Node v's token is ``str(v)``. ``edges`` is an (M, 2) integer array or an
    iterable of pairs. Raises ValueError naming the first edge, in input
    order, that is out of range, a self-loop, or a duplicate; callers that
    tolerate those must filter beforehand (see load_edge_list).
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    pairs = pairs.reshape(len(pairs), 2)
    u, v = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    outside = (lo < 0) | (hi >= num_nodes)
    loop = u == v
    repeat = np.ones(len(pairs), dtype=bool)
    repeat[np.unique(lo * num_nodes + hi, return_index=True)[1]] = False
    bad = np.flatnonzero(outside | loop | repeat)
    if len(bad):
        i = bad[0]
        if outside[i]:
            raise ValueError(f"edge ({u[i]}, {v[i]}) out of range for {num_nodes} nodes")
        if loop[i]:
            raise ValueError(f"self-loop at node {u[i]}")
        raise ValueError(f"duplicate edge ({lo[i]}, {hi[i]})")
    return Graph(num_nodes, np.stack([lo, hi], axis=1), tuple(map(str, range(num_nodes))))


def data_lines(lines: Iterable[str], header: str | None = None) -> Iterator[tuple[int, str]]:
    """``(line number from 1, stripped text)`` of each line that holds data.

    This is the one line rule of every input file: a line is stripped, and a
    blank line, a ``#`` comment and a line equal to ``header`` hold no data.
    """
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if text and text[0] != "#" and text != header:
            yield number, text


def load_edge_list(stream: TextIO | Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Each data line (see data_lines) holds two node tokens separated by
    whitespace or a comma. Tokens are interned to dense ids in first-seen
    order, so files with string labels or sparse/1-based integer ids load
    uniformly; original tokens are kept in ``Graph.names``. Self-loops and
    duplicate edges are dropped (the first copy of an edge is kept), with
    counts recorded on the returned graph.

    Raises ValueError for empty input, and for a line without exactly two
    tokens or whose second token begins with ``#``, naming its line number.
    """
    ids: dict[str, int] = {}
    ends = array("q")
    for line_number, text in data_lines(stream):
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            raise ValueError(
                f"line {line_number}: expected 2 node tokens, found {len(tokens)}: {text!r}")
        if tokens[1][0] == "#":  # a first token that begins with "#" makes a comment
            raise ValueError(f"line {line_number}: node token {tokens[1]!r} begins with '#'")
        ends.append(ids.setdefault(tokens[0], len(ids)))
        ends.append(ids.setdefault(tokens[1], len(ids)))
    if not ends:
        raise ValueError("empty edge list input")
    n = len(ids)
    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])
    return Graph(
        num_nodes=n,
        edges=np.stack([lo[first], hi[first]], axis=1),
        names=tuple(ids),
        self_loops_dropped=len(ends) // 2 - len(pairs),
        duplicates_dropped=len(pairs) - len(first),
    )


def write_edge_list(g: Graph, stream: TextIO) -> None:
    """Serialize one edge per line as its two node tokens."""
    names = g.names
    stream.writelines(f"{names[u]} {names[v]}\n" for u, v in g.edges.tolist())


def component_roots(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Each node's smallest fellow member of its connected component.

    ``edges`` is an (M, 2) array of node pairs. Shiloach-Vishkin style:
    every node points at a smaller or equal id of its component; each
    round hooks, per edge, the larger of its two endpoints' roots onto the
    smaller, then jumps pointers until each points at a root. A round with
    no edge between two roots ends it, and the roots are then the minima.
    """
    parent = np.arange(num_nodes)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        pu, pv = parent[u], parent[v]
        differ = pu != pv
        if not differ.any():
            return parent
        pu, pv = pu[differ], pv[differ]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def connected_components(g: Graph) -> ComponentPartition:
    """Connected components, ordered by descending size then smallest member."""
    roots = component_roots(g.num_nodes, g.edges)
    firsts, member_of, sizes = np.unique(roots, return_inverse=True, return_counts=True)
    rank = np.argsort(np.lexsort((firsts, -sizes)))
    component_id = rank[member_of]
    members = np.argsort(component_id, kind="stable")
    component_id.flags.writeable = members.flags.writeable = False
    ends = np.cumsum(np.sort(sizes)[::-1])
    # a split at every component's end leaves an empty last piece
    return ComponentPartition(component_id, tuple(np.split(members, ends)[:-1]))


def subgraph(g: Graph, nodes: Iterable[int]) -> Graph:
    """Induced subgraph on ``nodes`` with dense re-labeled ids.

    New ids follow ascending old id order: node i of the subgraph is the
    i-th smallest of ``nodes``. Edges survive iff both endpoints are kept,
    in ``g``'s edge order, and each node keeps its token.
    """
    selected = np.unique(np.fromiter(nodes, dtype=np.int64))
    outside = selected[(selected < 0) | (selected >= g.num_nodes)]
    if len(outside):
        raise ValueError(f"node id {outside[0]} out of range for {g.num_nodes} nodes")
    new_id = np.full(g.num_nodes, -1)
    new_id[selected] = np.arange(len(selected))
    edges = new_id[g.edges]
    names = tuple(g.names[v] for v in selected.tolist())
    return Graph(len(selected), edges[(edges >= 0).all(axis=1)], names)
