"""End-to-end run orchestration and artifact writers shared with the CLI.

Pipeline order: split into connected components, detect communities per
component (skipping components whose modularity stays under the quality
threshold), extract boundary edges on the merged labeling, then score every
node with confined walkers.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .boundary import BoundarySet, boundary_edges
from .community import (
    DEFAULT_Q_THRESHOLD,
    CommunityLabeling,
    detect_communities,
    modularity,
)
# subgraph is not called here; bench/tracing.py wraps it as a pipeline attribute
from .graph import Graph, connected_components, subgraph
from .walker import VisitScores, WalkConfig, bva


@dataclass(frozen=True)
class ComponentReport:
    """Community-detection outcome for one connected component."""

    index: int
    size: int
    num_edges: int
    modularity: float | None
    num_communities: int
    passes: int
    local_moves: int  # nodes Louvain's local moves evaluated, summed over passes
    skipped: str | None  # reason, or None when communities were accepted


@dataclass
class PipelineResult:
    graph: Graph
    labeling: CommunityLabeling
    components: list[ComponentReport]
    bset: BoundarySet
    scores: VisitScores
    q_threshold: float
    elapsed_seconds: float = 0.0

    @property
    def unconverged_fraction(self) -> float:
        converged = self.scores.converged
        return np.count_nonzero(~converged) / len(converged) if len(converged) else 0.0


def component_seed(seed: int, index: int) -> int:
    """Stable per-component sub-seed so components can run independently."""
    return (seed * 1_000_003 + index) % (1 << 63)


def detect_all_communities(
    g: Graph, seed: int = 0, q_threshold: float = DEFAULT_Q_THRESHOLD
) -> tuple[CommunityLabeling, list[ComponentReport]]:
    """Per-component community detection merged into one global labeling.

    Each component goes to Louvain as its own graph: its rows of ``g.edges``
    in input order, its nodes numbered by rank among its ascending members.
    Components whose detected modularity falls below ``q_threshold`` (or
    that have no edges at all) are treated as structureless: all their
    nodes share a single community label, so they contribute no boundary.
    Labels are globally unique across components.
    """
    parts = connected_components(g)
    # one stable sort groups each component's edge rows, in g.edges order
    row_component = parts.component_id[g.edges[:, 0]]
    rows = g.edges[np.argsort(row_component, kind="stable")]
    row_ends = np.cumsum(np.bincount(row_component, minlength=len(parts.components)))
    labels = np.full(g.num_nodes, -1)
    reports: list[ComponentReport] = []
    next_label = 0
    for index, (members, edges) in enumerate(zip(parts.components, np.split(rows, row_ends))):
        # a node's id in its component is its rank among the ascending members
        sub = Graph(len(members), np.searchsorted(members, edges),
                    tuple(g.names[v] for v in members.tolist()))
        # an edgeless component has no modularity and takes no Louvain pass
        detected = (detect_communities(sub, seed=component_seed(seed, index)) if len(edges)
                    else CommunityLabeling((), None, 1))
        skipped = ("no_edges" if detected.modularity is None else
                   "below_q_threshold" if detected.modularity < q_threshold else None)
        labels[members] = next_label + (0 if skipped else detected.labels)
        count = 1 if skipped else detected.num_communities
        next_label += count
        reports.append(ComponentReport(index, len(members), len(edges), detected.modularity,
                                       count, detected.passes, detected.local_moves, skipped))
    merged_q = modularity(g, labels) if g.num_edges > 0 else 0.0
    return CommunityLabeling(labels, merged_q, next_label), reports


def run_pipeline(
    g: Graph,
    walk: WalkConfig = WalkConfig(),
    q_threshold: float = DEFAULT_Q_THRESHOLD,
) -> PipelineResult:
    """Full scoring run over a loaded graph; ``walk.seed`` seeds Louvain and the walks."""
    start = time.perf_counter()
    labeling, reports = detect_all_communities(g, seed=walk.seed, q_threshold=q_threshold)
    bset = boundary_edges(g, labeling.labels)
    scores = bva(g, labeling.labels, bset, walk)
    return PipelineResult(
        graph=g, labeling=labeling, components=reports, bset=bset,
        scores=scores, q_threshold=q_threshold,
        elapsed_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# artifact writers


def _run_params(result: PipelineResult) -> dict:
    """The run's seed and threshold, then every other resolved walk parameter."""
    walk = asdict(result.scores.walk)
    return {"seed": walk.pop("seed"), "q_threshold": result.q_threshold, **walk}


def write_csv(stream: TextIO, header: str, *columns: Iterable,
              comment: str | None = None) -> None:
    """The writer of every CSV file: ``comment`` as a ``#`` line when given,
    ``header``, then a line per row holding str of each column's value.

    Columns hold Python values, so an array goes in as its ``.tolist()``;
    str of a Python float is its ``repr``, which reads back as the same float.
    """
    if comment is not None:
        stream.write(f"# {comment}\n")
    rows = zip(*(map(str, column) for column in columns))
    stream.write("\n".join(chain([header], map(",".join, rows))))
    stream.write("\n")


def write_node_table(g: Graph, stream: TextIO, header: str, *columns: np.ndarray,
                     comment: str | None = None) -> None:
    """A CSV row per node: its token, then its value in each int or float column."""
    write_csv(stream, header, g.names, *(c.tolist() for c in columns), comment=comment)


def write_scores_csv(result: PipelineResult, stream: TextIO) -> None:
    params = " ".join(f"{k}={v}" for k, v in _run_params(result).items())
    write_node_table(result.graph, stream, "node_id,raw_score,normalized_score",
                     result.scores.raw, result.scores.normalized, comment=params)


def build_scores_json(result: PipelineResult) -> dict:
    """The run's parameters, then each node's token and scores."""
    scores = result.scores
    rows = zip(result.graph.names, scores.raw.tolist(), scores.normalized.tolist())
    return {
        **_run_params(result),
        "scores": [{"node_id": name, "raw_score": raw, "normalized_score": normalized}
                   for name, raw, normalized in rows],
    }


def write_scores_dot(g: Graph, normalized: Sequence[float], stream: TextIO) -> None:
    """Graphviz export with node sizes scaled by normalized score."""
    # a backslash is escaped first, so a token ending in one cannot escape the closing quote
    ids = [name.replace("\\", "\\\\").replace('"', '\\"') for name in g.names]
    stream.write("graph boundary_vicinity {\n")
    stream.write("  node [shape=circle, fixedsize=true];\n")
    for name, score in zip(ids, np.asarray(normalized, dtype=np.float64).tolist()):
        stream.write(f'  "{name}" [width={0.25 + 0.75 * score:.4f}];\n')
    for u, v in g.edges.tolist():
        stream.write(f'  "{ids[u]}" -- "{ids[v]}";\n')
    stream.write("}\n")


def write_components_csv(g: Graph, stream: TextIO) -> None:
    write_node_table(g, stream, "node_id,component_id", connected_components(g).component_id)


def write_communities_csv(g: Graph, labels: np.ndarray, stream: TextIO, seed: int,
                          q_threshold: float) -> None:
    write_node_table(g, stream, "node_id,community_id", labels,
                     comment=f"seed={seed} q_threshold={q_threshold}")


def write_boundary_csv(g: Graph, labels: np.ndarray, bset: BoundarySet,
                       stream: TextIO) -> None:
    u, v = bset.boundary_edges.T
    names = g.names
    write_csv(stream, "i,j,community_i,community_j", [names[w] for w in u.tolist()],
              [names[w] for w in v.tolist()], labels[u].tolist(), labels[v].tolist())


def write_boundary_nodes_csv(g: Graph, labels: np.ndarray, bset: BoundarySet,
                             stream: TextIO) -> None:
    nodes = bset.boundary_nodes
    write_csv(stream, "node_id,community_id", [g.names[v] for v in nodes.tolist()],
              labels[nodes].tolist())


def write_betweenness_csv(g: Graph, values: Sequence[float], stream: TextIO) -> None:
    write_node_table(g, stream, "node_id,betweenness", np.asarray(values, dtype=np.float64))


def build_manifest(result: PipelineResult) -> dict:
    """Machine-readable run record; everything needed to reproduce the run."""
    scores = result.scores
    origins = [str(v) for v in result.bset.boundary_nodes.tolist()]
    return {
        "version": __version__,
        "seed": scores.walk.seed,
        "q_threshold": result.q_threshold,
        "walk": asdict(scores.walk),
        "graph": {
            "num_nodes": result.graph.num_nodes,
            "num_edges": result.graph.num_edges,
            "self_loops_dropped": result.graph.self_loops_dropped,
            "duplicates_dropped": result.graph.duplicates_dropped,
        },
        "components": [asdict(r) for r in result.components],
        "modularity": result.labeling.modularity,
        "num_communities": result.labeling.num_communities,
        "num_boundary_edges": len(result.bset.boundary_edges),
        "num_boundary_nodes": len(result.bset.boundary_nodes),
        "walkers_used": dict(zip(origins, scores.walkers_used.tolist())),
        "converged": dict(zip(origins, scores.converged.tolist())),
        "batches": dict(zip(origins, scores.batches.tolist())),
        "psrf": dict(zip(origins, scores.psrf.tolist())),
        "unconverged_fraction": result.unconverged_fraction,
        "warning": scores.warning,
        "elapsed_seconds": result.elapsed_seconds,
    }
