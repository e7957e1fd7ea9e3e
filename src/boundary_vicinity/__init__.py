"""Rank nodes by their ability to carry information between graph communities.

The scoring engine launches truncated random walks from every boundary node
(a node with an edge into another community), confined to the node's own
community, and turns converged visit counts into a per-node score. Brandes
betweenness, synthetic generators, and windowed activity analysis round out
the toolkit.
"""

__version__ = "0.1.0"

import os

# No code here calls BLAS, and numpy's bundled OpenBLAS starts a thread per
# core while numpy is imported, which costs each `bva` run tens of ms.
# Set before the first submodule imports numpy; a value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .boundary import BoundarySet, boundary_edges
from .centrality import betweenness_brandes, rank_overlap
from .community import (
    CommunityLabeling,
    community_mask,
    detect_communities,
    modularity,
)
from .generators import (
    PlantedNetwork,
    connect_communities,
    erdos_renyi,
    preferential_attachment,
)
from .graph import (
    ComponentPartition,
    Graph,
    build_graph,
    connected_components,
    load_edge_list,
    write_edge_list,
)
from .pipeline import (
    PipelineResult,
    detect_all_communities,
    run_pipeline,
)
from .temporal import (
    EventSeries,
    bin_events,
    control_series,
    detect_spikes,
    sample_control_nodes,
)
from .walker import (
    VisitScores,
    WalkConfig,
    bva,
    default_step_count,
)

__all__ = [
    "BoundarySet",
    "CommunityLabeling",
    "ComponentPartition",
    "EventSeries",
    "Graph",
    "PipelineResult",
    "PlantedNetwork",
    "VisitScores",
    "WalkConfig",
    "betweenness_brandes",
    "bin_events",
    "boundary_edges",
    "build_graph",
    "bva",
    "community_mask",
    "connect_communities",
    "connected_components",
    "control_series",
    "default_step_count",
    "detect_all_communities",
    "detect_communities",
    "detect_spikes",
    "erdos_renyi",
    "load_edge_list",
    "modularity",
    "preferential_attachment",
    "rank_overlap",
    "run_pipeline",
    "sample_control_nodes",
    "write_edge_list",
]
