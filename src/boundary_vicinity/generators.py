"""Seeded synthetic networks: ER, preferential attachment, planted stitching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import boundary_edges
from .graph import Graph, build_graph, connected_components

STITCH_RETRY_LIMIT = 100


@dataclass(frozen=True, eq=False)
class PlantedNetwork:
    """A stitched multi-community graph with known ground truth.

    ``planted_labels`` gives each node the index of the part it came from;
    ``planted_boundary`` is their boundary nodes, ascending: the sampled
    cross-linkers and their partners. Both are read-only int64 arrays.
    """

    graph: Graph
    planted_labels: np.ndarray
    planted_boundary: np.ndarray


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """ER random graph: each unordered pair is an edge with probability p."""
    if n < 1:
        raise ValueError("need at least one node")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # one draw per pair, in row-major (u, v > u) order, a row of draws at a time
    rows = [np.flatnonzero(rng.random(n - 1 - u) < p) + u + 1 for u in range(n)]
    u = np.repeat(np.arange(n), [len(row) for row in rows])
    return build_graph(n, np.stack([u, np.concatenate(rows)], axis=1))


def preferential_attachment(n: int, m: int, seed: int = 0) -> Graph:
    """Degree-proportional growth from a seed clique of m + 1 nodes.

    Each arriving node attaches m edges to distinct existing nodes, chosen
    with probability proportional to current degree. Yields a tree for
    m = 1 and C(m+1, 2) + (n - m - 1) * m edges in general.
    """
    if m < 1:
        raise ValueError("attachment count must be at least 1")
    if n <= m:
        raise ValueError(f"need more than {m} nodes to attach {m} edges each")
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # one entry per endpoint, so uniform picks are degree-proportional
    repeated: list[int] = [v for e in edges for v in e]
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, new))
            repeated.append(t)
        repeated.extend([new] * m)
    return build_graph(n, edges)


def connect_communities(
    parts: list[Graph], k: int, seed: int = 0
) -> PlantedNetwork:
    """Stitch disjoint connected parts into one graph via k random cross edges.

    Node ids of each part are offset into one id space. k distinct nodes
    are sampled across the union; each gets a single edge to a uniformly
    chosen node of a uniformly chosen different part. The construction is
    retried until the stitched graph is one connected component, erroring
    out after a bounded number of attempts.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts to stitch")
    for i, part in enumerate(parts):
        if part.num_nodes == 0:
            raise ValueError(f"part {i} is empty")
        if len(connected_components(part).components) != 1:
            raise ValueError(f"part {i} is not connected")
    if k < len(parts) - 1:
        raise ValueError(
            f"{k} cross edges cannot connect {len(parts)} parts"
        )
    sizes = [part.num_nodes for part in parts]
    offsets = np.cumsum([0] + sizes).tolist()
    total = offsets.pop()
    if k > total:
        raise ValueError(f"cannot select {k} distinct nodes from {total}")
    labels = np.repeat(np.arange(len(parts)), sizes)
    labels.flags.writeable = False
    # an edge (u, v), u < v, as the key u * total + v: key order is (u, v) order
    within = np.concatenate([part.edges + offset for part, offset in zip(parts, offsets)])
    within_keys = within[:, 0] * total + within[:, 1]

    rng = np.random.default_rng(seed)
    for _ in range(STITCH_RETRY_LIMIT):
        # a cross edge joins two parts, so it can only repeat another cross edge
        cross: set[int] = set()
        for s in rng.choice(total, size=k, replace=False).tolist():
            others = [i for i in range(len(parts)) if i != labels[s]]
            for _attempt in range(STITCH_RETRY_LIMIT):
                p = others[int(rng.integers(len(others)))]
                t = offsets[p] + int(rng.integers(parts[p].num_nodes))
                key = min(s, t) * total + max(s, t)
                if key not in cross:
                    cross.add(key)
                    break
            else:
                break  # s found no new partner: draw another selection
        else:
            keys = np.sort(np.concatenate([within_keys, np.fromiter(cross, np.int64, len(cross))]))
            g = build_graph(total, np.stack(np.divmod(keys, total), axis=1))
            if len(connected_components(g).components) == 1:
                return PlantedNetwork(g, labels, boundary_edges(g, labels).boundary_nodes)
    raise ValueError(f"failed to build a connected stitching in {STITCH_RETRY_LIMIT} tries")
