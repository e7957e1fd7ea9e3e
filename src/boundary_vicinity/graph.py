"""Undirected simple-graph container, edge-list parsing, and connectivity."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence, TextIO

import numpy as np


class EdgeListParseError(ValueError):
    """A malformed edge-list line; message carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    Node ids are dense integers in [0, num_nodes). ``edges`` holds each
    undirected edge once as an (u, v) pair with u < v; ``adjacency`` holds
    a sorted neighbor tuple per node, consistent with ``edges``. ``names``
    maps dense ids back to the original node tokens when the graph was read
    from a file with non-dense labels. ``csr`` is the same adjacency as
    arrays, built on first use.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``, read-only int64: the neighbours of v are
        ``indices[indptr[v]:indptr[v + 1]]``, in ``adjacency`` order (ascending)."""
        degree = np.fromiter(map(len, self.adjacency), dtype=np.int64, count=self.num_nodes)
        indptr = np.concatenate([[0], np.cumsum(degree)])
        indices = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.int64,
                              count=int(indptr[-1]))
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def name_of(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components: per-node component id plus the member lists.

    ``components`` is ordered by descending size, ties broken by smallest
    member id; each entry is a sorted tuple of node ids. ``component_id[v]``
    is the index of v's entry in ``components``.
    """

    component_id: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def build_graph(
    num_nodes: int,
    edges: Iterable[tuple[int, int]],
    names: Sequence[str] | None = None,
    self_loops_dropped: int = 0,
    duplicates_dropped: int = 0,
) -> Graph:
    """Assemble a Graph from already-dense node ids, validating simplicity.

    Raises ValueError on out-of-range ids, self-loops, or duplicate edges;
    callers that tolerate those must filter beforehand (see load_edge_list).
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be nonnegative")
    canonical: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(
        num_nodes=num_nodes,
        edges=tuple(canonical),
        adjacency=tuple(tuple(sorted(n)) for n in adj),
        names=tuple(names) if names is not None else None,
        self_loops_dropped=self_loops_dropped,
        duplicates_dropped=duplicates_dropped,
    )


def load_edge_list(stream: TextIO | Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a Graph.

    Each non-empty, non-comment ('#') line holds two node tokens separated
    by whitespace or a comma. Tokens are interned to dense ids in first-seen
    order, so files with string labels or sparse/1-based integer ids load
    uniformly; original tokens are kept in ``Graph.names``. Self-loops and
    duplicate edges are dropped, with counts recorded on the returned graph.

    Raises EdgeListParseError for lines without exactly two tokens, and
    ValueError for empty input.
    """
    ids: dict[str, int] = {}
    names: list[str] = []
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0
    saw_content = False

    def intern(token: str) -> int:
        if token not in ids:
            ids[token] = len(names)
            names.append(token)
        return ids[token]

    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        saw_content = True
        tokens = text.replace(",", " ").split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                line_number, f"expected 2 node tokens, found {len(tokens)}: {text!r}"
            )
        u, v = intern(tokens[0]), intern(tokens[1])
        if u == v:
            self_loops += 1
            continue
        e = (u, v) if u < v else (v, u)
        if e in seen:
            duplicates += 1
            continue
        seen.add(e)
        edges.append(e)

    if not saw_content:
        raise ValueError("empty edge list input")
    return build_graph(
        len(names),
        edges,
        names=names,
        self_loops_dropped=self_loops,
        duplicates_dropped=duplicates,
    )


def write_edge_list(g: Graph, stream: TextIO) -> None:
    """Serialize one edge per line using original node names when present."""
    for u, v in g.edges:
        stream.write(f"{g.name_of(u)} {g.name_of(v)}\n")


def connected_components(g: Graph) -> ComponentPartition:
    """BFS connected components, ordered by descending size then smallest member."""
    comp_of = [-1] * g.num_nodes
    groups: list[list[int]] = []
    for start in range(g.num_nodes):
        if comp_of[start] >= 0:
            continue
        comp_of[start] = len(groups)
        members = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adjacency[u]:
                if comp_of[w] < 0:
                    comp_of[w] = len(groups)
                    members.append(w)
                    queue.append(w)
        groups.append(sorted(members))
    order = sorted(range(len(groups)), key=lambda i: (-len(groups[i]), groups[i][0]))
    rank = {old: new for new, old in enumerate(order)}
    return ComponentPartition(
        component_id=tuple(rank[c] for c in comp_of),
        components=tuple(tuple(groups[old]) for old in order),
    )


def subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``nodes`` with dense re-labeled ids.

    New ids follow ascending old id order. Returns the subgraph and the
    old-to-new id mapping. Edges survive iff both endpoints are kept.
    """
    selected = sorted(set(nodes))
    for v in selected:
        if not (0 <= v < g.num_nodes):
            raise ValueError(f"node id {v} out of range for {g.num_nodes} nodes")
    mapping = {old: new for new, old in enumerate(selected)}
    kept = [
        (mapping[u], mapping[v])
        for u, v in g.edges
        if u in mapping and v in mapping
    ]
    names = tuple(g.name_of(v) for v in selected) if g.names is not None else None
    return build_graph(len(selected), kept, names=names), mapping
