"""Boundary extraction: edges whose endpoints carry different community labels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .community import CommunityLabeling
from .graph import Graph


@dataclass(frozen=True)
class BoundarySet:
    """Cross-community edges and their endpoints.

    ``boundary_edges`` keeps edge-list order; ``boundary_nodes`` is sorted
    ascending so downstream accumulation order is reproducible.
    ``home_community`` maps each boundary node to its own community label,
    which is the community a walker launched from that node is confined to.
    """

    boundary_edges: tuple[tuple[int, int], ...]
    boundary_nodes: tuple[int, ...]
    home_community: dict[int, int] = field(default_factory=dict)


def boundary_edges(g: Graph, labeling: CommunityLabeling) -> BoundarySet:
    """Collect every edge whose two endpoints have different labels.

    Relabeling communities by any permutation leaves the result unchanged;
    only label equality matters.
    """
    if len(labeling.labels) != g.num_nodes:
        raise ValueError(
            f"labeling covers {len(labeling.labels)} nodes, graph has {g.num_nodes}"
        )
    labels = np.asarray(labeling.labels)
    crossing = g.edges[labels[g.edges[:, 0]] != labels[g.edges[:, 1]]]
    nodes = np.unique(crossing).tolist()
    return BoundarySet(
        boundary_edges=tuple(map(tuple, crossing.tolist())),
        boundary_nodes=tuple(nodes),
        home_community={v: labeling.labels[v] for v in nodes},
    )
