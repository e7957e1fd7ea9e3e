"""Boundary extraction: edges whose endpoints carry different community labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True, eq=False)
class BoundarySet:
    """Cross-community edges and their endpoints, as read-only int64 arrays.

    ``boundary_edges`` is (K, 2), one ``g.edges`` row per crossing edge in
    edge-list order; ``boundary_nodes`` is its distinct endpoints, ascending,
    so downstream accumulation order is reproducible. A walker launched from
    a boundary node is confined to that node's own community.
    """

    boundary_edges: np.ndarray
    boundary_nodes: np.ndarray


def boundary_edges(g: Graph, labels: np.ndarray) -> BoundarySet:
    """Collect every edge whose two endpoints have different labels.

    ``labels`` holds one community label per node, as an int array.
    Relabeling communities by any permutation leaves the result unchanged;
    only label equality matters.
    """
    if len(labels) != g.num_nodes:
        raise ValueError(f"labeling covers {len(labels)} nodes, graph has {g.num_nodes}")
    crossing = g.edges[labels[g.edges[:, 0]] != labels[g.edges[:, 1]]]
    nodes = np.flatnonzero(np.bincount(crossing.ravel(), minlength=g.num_nodes))
    crossing.flags.writeable = nodes.flags.writeable = False
    return BoundarySet(boundary_edges=crossing, boundary_nodes=nodes)
