"""Confined truncated random walks from boundary nodes, with convergence control.

Each boundary node launches batches of independent fixed-length walkers that
never leave the node's own community (edges crossing community lines are
absent from the walk graph). Batches accumulate until the per-node visit
counts pass a Gelman-Rubin style convergence window, then the counts are
normalized per walker, scaled by relative community size, and merged into a
single score vector over the whole graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .boundary import BoundarySet
from .community import CommunityLabeling, community_mask
from .graph import Graph

DEFAULT_WALKNUM = 50
DEFAULT_MAX_BATCHES = 20
DEFAULT_PSRF_LOW = 0.95
DEFAULT_PSRF_HIGH = 1.05


@dataclass(frozen=True)
class WalkConfig:
    """Walker batch sizing, convergence window, and RNG seed.

    ``walknum`` walkers are run per convergence check; at least 4 so the
    diagnostic has two chains of two draws. ``stepnum`` is the fixed walk
    length; None means derive it from the graph size via
    ``default_step_count`` when the run starts. The run is declared
    converged once the diagnostic lands inside [psrf_low, psrf_high],
    giving up (flagged, never silent) after ``max_batches`` batches.
    """

    walknum: int = DEFAULT_WALKNUM
    stepnum: int | None = None
    psrf_low: float = DEFAULT_PSRF_LOW
    psrf_high: float = DEFAULT_PSRF_HIGH
    max_batches: int = DEFAULT_MAX_BATCHES
    seed: int = 0

    def __post_init__(self):
        if self.walknum < 4:
            raise ValueError("walknum must be at least 4 (two chains of two draws)")
        if self.stepnum is not None and self.stepnum < 1:
            raise ValueError("stepnum must be positive")
        if not (self.psrf_low < 1.0 < self.psrf_high):
            raise ValueError("convergence window must straddle 1")
        if self.max_batches < 1:
            raise ValueError("max_batches must be positive")


@dataclass
class WalkBatch:
    """Accumulated walks from one origin: one visit-count row per walker."""

    visits: np.ndarray  # shape (num_walks, mask nodes), nonnegative ints
    origin: int
    converged: bool = True
    psrf_value: float = 1.0
    batches: int = 1

    @property
    def num_walks(self) -> int:
        return int(self.visits.shape[0])


@dataclass
class VisitScores:
    """Merged walker scores over the full graph.

    ``raw`` is the per-walker-normalized, community-size-scaled visit mass;
    ``normalized`` divides by the maximum so the top node scores exactly 1.
    ``walk`` is the config the run used, with ``stepnum`` resolved.
    ``walkers_used`` and ``converged`` are keyed by boundary node id.
    """

    raw: np.ndarray
    normalized: np.ndarray
    walk: WalkConfig
    walkers_used: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    warning: str | None = None


def default_step_count(n: int) -> int:
    """Walk length heuristic: ceil(ln n / ln ln n), at least 2.

    This tracks the average path length of preferential-attachment style
    networks, keeping walks short enough to stay local to their origin.
    For small n where ln(ln n) drops below 1 (n < 16) the denominator is
    clamped away, using ceil(ln n) instead.
    """
    if n < 2:
        raise ValueError("step count needs at least 2 nodes")
    log_n = math.log(n)
    log_log_n = math.log(log_n) if log_n > 1.0 else 0.0
    value = math.ceil(log_n / log_log_n) if log_log_n >= 1.0 else math.ceil(log_n)
    return max(2, value)


def _walk_rng(seed: int, stream_id: int, walk_index: int) -> np.random.Generator:
    """Counter-keyed generator: one independent stream per individual walk.

    Scheduling cannot perturb results because a walk's randomness depends
    only on (seed, stream id, walk index), never on execution order.
    """
    key = np.array(
        [seed % (1 << 64), ((stream_id & 0xFFFFFFFF) << 32) | (walk_index & 0xFFFFFFFF)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def random_walk(
    mask: Graph, start: int, stepnum: int, rng: np.random.Generator
) -> np.ndarray:
    """One truncated walk: count the start once, then each step's node once.

    Every step moves to a uniformly random neighbor. A node with no
    neighbors in the walk graph ends the walk early, so the row sum lies in
    [1, stepnum + 1].
    """
    if not (0 <= start < mask.num_nodes):
        raise ValueError(f"start node {start} not in walk graph")
    visits = np.zeros(mask.num_nodes, dtype=np.int64)
    visits[start] = 1
    current = start
    draws = rng.random(stepnum)
    for u in draws:
        neighbors = mask.adjacency[current]
        if not neighbors:
            break
        current = neighbors[int(u * len(neighbors))]
        visits[current] += 1
    return visits


def psrf(batch: WalkBatch, num_chains: int) -> float:
    """Potential scale reduction factor over the batch's visit counts.

    Walkers split into ``num_chains`` equal groups in arrival order. Per
    node: W is the mean within-group variance, B/n the variance of group
    means, and the pooled estimate V = ((n-1)/n) W + B/n gives
    sqrt(V / W). Returns the maximum over nodes with W > 0; when no node
    varies within groups there is nothing left to learn and the result is
    exactly 1.
    """
    total = batch.num_walks
    if num_chains < 2:
        raise ValueError("need at least 2 chains")
    if total % num_chains != 0:
        raise ValueError(f"{total} walks do not divide into {num_chains} equal chains")
    n = total // num_chains
    if n < 2:
        raise ValueError("each chain needs at least 2 walks")
    chains = batch.visits.reshape(num_chains, n, -1).astype(float)
    within = chains.var(axis=1, ddof=1).mean(axis=0)
    means = chains.mean(axis=1)
    between_over_n = means.var(axis=0, ddof=1)
    active = within > 0.0
    if not active.any():
        return 1.0
    pooled = (n - 1) / n * within[active] + between_over_n[active]
    return float(np.sqrt(pooled / within[active]).max())


def run_converged_walks(
    mask: Graph,
    start: int,
    cfg: WalkConfig,
    stream_id: int | None = None,
) -> WalkBatch:
    """Accumulate walk batches from ``start`` until the diagnostic settles.

    After each batch of ``cfg.walknum`` walks the diagnostic runs over all
    walks so far, split into two equal arrival-order chains (an odd
    trailing walk is left out of the split). Returns once the value falls
    inside the convergence window, or after ``cfg.max_batches`` batches
    with ``converged=False``.

    ``stream_id`` names the RNG substream and defaults to ``start``;
    callers running many origins against different masks pass a globally
    unique id to keep streams distinct.
    """
    if cfg.stepnum is None:
        raise ValueError("stepnum unresolved; set WalkConfig.stepnum")
    sid = start if stream_id is None else stream_id
    rows: list[np.ndarray] = []
    value = math.inf
    batches = 0
    while batches < cfg.max_batches:
        base = len(rows)
        for w in range(cfg.walknum):
            rng = _walk_rng(cfg.seed, sid, base + w)
            rows.append(random_walk(mask, start, cfg.stepnum, rng))
        batches += 1
        usable = len(rows) - (len(rows) % 2)
        probe = WalkBatch(visits=np.stack(rows[:usable]), origin=start)
        value = psrf(probe, 2)
        if cfg.psrf_low <= value <= cfg.psrf_high:
            return WalkBatch(
                visits=np.stack(rows), origin=start,
                converged=True, psrf_value=value, batches=batches,
            )
    return WalkBatch(
        visits=np.stack(rows), origin=start,
        converged=False, psrf_value=value, batches=batches,
    )


def scale_community_weights(
    visits: Sequence[float] | np.ndarray, community_size: int, n_total: int
) -> np.ndarray:
    """Scale visit mass by relative community size, |community| / |graph|.

    Nodes in larger communities deliver a larger share of the graph-wide
    information flow, so their visit counts carry proportionally more weight.
    """
    if n_total < 1:
        raise ValueError("total node count must be positive")
    if community_size > n_total:
        raise ValueError("community cannot exceed the whole graph")
    return np.asarray(visits, dtype=float) * (community_size / n_total)


def bva(
    g: Graph,
    labeling: CommunityLabeling,
    bset: BoundarySet,
    cfg: WalkConfig,
) -> VisitScores:
    """Boundary vicinity scores for every node of ``g``.

    An unset ``cfg.stepnum`` resolves to ``default_step_count`` of the
    graph size (1 for a one-node graph); the resolved config comes back as
    ``VisitScores.walk``. For each boundary node (ascending id) the walk
    graph is its home community's mask. Converged visit counts are summed,
    divided by the number of walkers used (so extra batches taken to
    converge do not inflate mass), scaled by relative community size, and
    added into the graph-wide score vector. ``normalized`` then divides by
    the maximum.

    Each walk draws from its own RNG substream keyed by (seed, origin,
    walk index), so an origin's result does not depend on the others.
    """
    if cfg.stepnum is None:
        stepnum = default_step_count(g.num_nodes) if g.num_nodes >= 2 else 1
        cfg = replace(cfg, stepnum=stepnum)
    raw = np.zeros(g.num_nodes)
    if not bset.boundary_nodes:
        return VisitScores(
            raw=raw, normalized=raw.copy(), walk=cfg,
            warning="no boundary nodes: no community structure to bridge",
        )

    masks: dict[int, tuple[Graph, dict[int, int], np.ndarray]] = {}
    walkers_used: dict[int, int] = {}
    converged: dict[int, bool] = {}
    for node in bset.boundary_nodes:
        c = bset.home_community[node]
        if c not in masks:
            mask, mapping = community_mask(g, labeling, c)
            old_of_new = np.empty(mask.num_nodes, dtype=np.int64)
            for old, new in mapping.items():
                old_of_new[new] = old
            masks[c] = (mask, mapping, old_of_new)
        mask, mapping, old_of_new = masks[c]
        batch = run_converged_walks(mask, mapping[node], cfg, stream_id=node)
        per_walker = batch.visits.sum(axis=0) / batch.num_walks
        raw[old_of_new] += scale_community_weights(per_walker, mask.num_nodes, g.num_nodes)
        walkers_used[node] = batch.num_walks
        converged[node] = batch.converged
    peak = raw.max()
    normalized = raw / peak if peak > 0 else raw.copy()
    return VisitScores(
        raw=raw, normalized=normalized, walk=cfg,
        walkers_used=walkers_used, converged=converged,
    )
