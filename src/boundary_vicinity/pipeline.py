"""End-to-end run orchestration and artifact writers shared with the CLI.

Pipeline order: split into connected components, detect communities per
component (skipping components whose modularity stays under the quality
threshold), extract boundary edges on the merged labeling, then score every
node with confined walkers.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Sequence, TextIO

import numpy as np

from . import __version__
from .boundary import BoundarySet, boundary_edges
from .community import (
    DEFAULT_Q_THRESHOLD,
    CommunityLabeling,
    detect_communities,
    modularity,
)
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
    skipped: str | None  # reason, or None when communities were accepted
    local_moves: int = 0  # Louvain local-move queue pops, summed over passes


@dataclass
class PipelineResult:
    graph: Graph
    labeling: CommunityLabeling
    components: list[ComponentReport]
    bset: BoundarySet
    scores: VisitScores
    seed: int
    q_threshold: float
    elapsed_seconds: float = 0.0

    @property
    def unconverged_fraction(self) -> float:
        if not self.scores.converged:
            return 0.0
        bad = sum(1 for ok in self.scores.converged.values() if not ok)
        return bad / len(self.scores.converged)


def component_seed(seed: int, index: int) -> int:
    """Stable per-component sub-seed so components can run independently."""
    return (seed * 1_000_003 + index) % (1 << 63)


def detect_all_communities(
    g: Graph, seed: int = 0, q_threshold: float = DEFAULT_Q_THRESHOLD
) -> tuple[CommunityLabeling, list[ComponentReport]]:
    """Per-component community detection merged into one global labeling.

    Components whose detected modularity falls below ``q_threshold`` (or
    that have no edges at all) are treated as structureless: all their
    nodes share a single community label, so they contribute no boundary.
    Labels are globally unique across components.
    """
    parts = connected_components(g)
    labels = np.full(g.num_nodes, -1)
    reports: list[ComponentReport] = []
    next_label = 0
    for index, members in enumerate(parts.components):
        # the induced subgraph on every node is g itself, in the same order
        sub = g if len(members) == g.num_nodes else subgraph(g, members)[0]
        members = list(members)
        if sub.num_edges == 0:
            labels[members] = next_label
            next_label += 1
            reports.append(ComponentReport(
                index=index, size=len(members), num_edges=0, modularity=None,
                num_communities=1, passes=0, skipped="no_edges",
            ))
            continue
        detected = detect_communities(sub, seed=component_seed(seed, index))
        skipped = "below_q_threshold" if detected.modularity < q_threshold else None
        # subgraph ids follow ascending old ids, as members do
        labels[members] = next_label + (0 if skipped else np.asarray(detected.labels))
        count = 1 if skipped else detected.num_communities
        next_label += count
        reports.append(ComponentReport(
            index=index, size=len(members), num_edges=sub.num_edges,
            modularity=detected.modularity, num_communities=count,
            passes=detected.passes, skipped=skipped, local_moves=detected.local_moves,
        ))
    merged_q = modularity(g, labels) if g.num_edges > 0 else 0.0
    merged = CommunityLabeling(
        labels=tuple(labels.tolist()), modularity=merged_q, num_communities=next_label,
    )
    return merged, reports


def run_pipeline(
    g: Graph,
    seed: int = 0,
    q_threshold: float = DEFAULT_Q_THRESHOLD,
    walk: WalkConfig | None = None,
) -> PipelineResult:
    """Full scoring run over a loaded graph."""
    start = time.perf_counter()
    cfg = walk if walk is not None else WalkConfig(seed=seed)
    labeling, reports = detect_all_communities(g, seed=seed, q_threshold=q_threshold)
    bset = boundary_edges(g, labeling)
    scores = bva(g, labeling, bset, cfg)
    return PipelineResult(
        graph=g, labeling=labeling, components=reports, bset=bset,
        scores=scores, seed=seed, q_threshold=q_threshold,
        elapsed_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# artifact writers


def _run_params(result: PipelineResult) -> dict:
    """Pipeline seed and threshold, then every resolved walk parameter but its seed."""
    walk = asdict(result.scores.walk)
    del walk["seed"]
    return {"seed": result.seed, "q_threshold": result.q_threshold, **walk}


def write_scores_csv(result: PipelineResult, stream: TextIO) -> None:
    params = " ".join(f"{k}={v}" for k, v in _run_params(result).items())
    stream.write(f"# {params}\n")
    stream.write("node_id,raw_score,normalized_score\n")
    g = result.graph
    for v in range(g.num_nodes):
        stream.write(
            f"{g.name_of(v)},{float(result.scores.raw[v])!r},"
            f"{float(result.scores.normalized[v])!r}\n"
        )


def write_scores_json(result: PipelineResult, stream: TextIO) -> None:
    g = result.graph
    payload = {
        **_run_params(result),
        "scores": [
            {
                "node_id": g.name_of(v),
                "raw_score": float(result.scores.raw[v]),
                "normalized_score": float(result.scores.normalized[v]),
            }
            for v in range(g.num_nodes)
        ],
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def write_scores_dot(g: Graph, normalized: Sequence[float], stream: TextIO) -> None:
    """Graphviz export with node sizes scaled by normalized score."""
    # a backslash is escaped first, so a token ending in one cannot escape the closing quote
    ids = [g.name_of(v).replace("\\", "\\\\").replace('"', '\\"') for v in range(g.num_nodes)]
    stream.write("graph boundary_vicinity {\n")
    stream.write("  node [shape=circle, fixedsize=true];\n")
    for v in range(g.num_nodes):
        width = 0.25 + 0.75 * float(normalized[v])
        stream.write(f'  "{ids[v]}" [width={width:.4f}];\n')
    for u, v in g.edges.tolist():
        stream.write(f'  "{ids[u]}" -- "{ids[v]}";\n')
    stream.write("}\n")


def write_components_csv(g: Graph, stream: TextIO) -> None:
    parts = connected_components(g)
    stream.write("node_id,component_id\n")
    for v in range(g.num_nodes):
        stream.write(f"{g.name_of(v)},{parts.component_id[v]}\n")


def write_communities_csv(
    g: Graph,
    labeling: CommunityLabeling,
    stream: TextIO,
    seed: int | None = None,
    q_threshold: float | None = None,
) -> None:
    if seed is not None:
        stream.write(f"# seed={seed} q_threshold={q_threshold}\n")
    stream.write("node_id,community_id\n")
    for v in range(g.num_nodes):
        stream.write(f"{g.name_of(v)},{labeling.labels[v]}\n")


def write_boundary_csv(g: Graph, labeling: CommunityLabeling, bset: BoundarySet,
                       stream: TextIO) -> None:
    stream.write("i,j,community_i,community_j\n")
    for u, v in bset.boundary_edges:
        stream.write(
            f"{g.name_of(u)},{g.name_of(v)},"
            f"{labeling.labels[u]},{labeling.labels[v]}\n"
        )


def write_boundary_nodes_csv(g: Graph, bset: BoundarySet, stream: TextIO) -> None:
    stream.write("node_id,community_id\n")
    for v in bset.boundary_nodes:
        stream.write(f"{g.name_of(v)},{bset.home_community[v]}\n")


def write_betweenness_csv(g: Graph, values: Sequence[float], stream: TextIO) -> None:
    stream.write("node_id,betweenness\n")
    for v in range(g.num_nodes):
        stream.write(f"{g.name_of(v)},{float(values[v])!r}\n")


def build_manifest(result: PipelineResult) -> dict:
    """Machine-readable run record; everything needed to reproduce the run."""
    scores = result.scores
    return {
        "version": __version__,
        "seed": result.seed,
        "q_threshold": result.q_threshold,
        "walk": asdict(scores.walk),
        "graph": {
            "num_nodes": result.graph.num_nodes,
            "num_edges": result.graph.num_edges,
            "self_loops_dropped": result.graph.self_loops_dropped,
            "duplicates_dropped": result.graph.duplicates_dropped,
        },
        "components": [
            {
                "index": r.index,
                "size": r.size,
                "num_edges": r.num_edges,
                "modularity": r.modularity,
                "num_communities": r.num_communities,
                "passes": r.passes,
                "local_moves": r.local_moves,
                "skipped": r.skipped,
            }
            for r in result.components
        ],
        "modularity": result.labeling.modularity,
        "num_communities": result.labeling.num_communities,
        "num_boundary_edges": len(result.bset.boundary_edges),
        "num_boundary_nodes": len(result.bset.boundary_nodes),
        "walkers_used": {str(k): v for k, v in scores.walkers_used.items()},
        "converged": {str(k): v for k, v in scores.converged.items()},
        "batches": {str(k): v for k, v in scores.batches.items()},
        "psrf": {str(k): v for k, v in scores.psrf.items()},
        "unconverged_fraction": result.unconverged_fraction,
        "warning": scores.warning,
        "elapsed_seconds": result.elapsed_seconds,
    }
