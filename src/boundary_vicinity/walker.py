"""Confined truncated random walks from boundary nodes, with convergence control.

Each boundary node launches batches of independent fixed-length walkers that
never leave the node's own community (edges crossing community lines are
absent from the walk graph). Batches accumulate until the per-node visit
counts pass a Gelman-Rubin style convergence window, then the counts are
normalized per walker, scaled by relative community size, and merged into a
single score vector over the whole graph. The engine runs in rounds: round k
draws batch k of every origin still running, all walks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .boundary import BoundarySet
from .community import community_mask
from .graph import Graph

# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11), as in numpy
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


@dataclass(frozen=True)
class WalkConfig:
    """Walker batch sizing, convergence window, and the run's seed.

    ``walknum`` walkers are run per convergence check; at least 4 so the
    diagnostic has two chains of two draws. ``stepnum`` is the fixed walk
    length; None means derive it from the graph size via
    ``default_step_count`` when the run starts. The run is declared
    converged once the diagnostic lands inside [psrf_low, psrf_high],
    giving up (flagged, never silent) after ``max_batches`` batches.
    ``seed`` keys the walks' RNG substreams and, in ``run_pipeline``, Louvain.
    """

    walknum: int = 50
    stepnum: int | None = None
    psrf_low: float = 0.95
    psrf_high: float = 1.05
    max_batches: int = 20
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
    """Accumulated walks from one origin: one visit-count row per walker.

    Columns cover only the visited nodes, named by ``nodes`` in ascending
    order; every other node's count is zero in every row.
    """

    visits: np.ndarray  # shape (num_walks, len(nodes)), nonnegative ints
    nodes: np.ndarray  # ascending node ids, one per column of visits
    converged: bool = True
    psrf_value: float = 1.0
    batches: int = 1

    @property
    def num_walks(self) -> int:
        return int(self.visits.shape[0])


@dataclass(eq=False)
class VisitScores:
    """Merged walker scores over the full graph.

    ``raw`` is the per-walker-normalized, community-size-scaled visit mass;
    ``normalized`` divides by the maximum so the top node scores exactly 1.
    ``walk`` is the config the run used, with ``stepnum`` resolved.
    ``walkers_used``, ``converged`` (bool), ``batches`` and ``psrf`` (the
    last diagnostic value, float64) are read-only arrays with one entry per
    origin, aligned with ``BoundarySet.boundary_nodes``.
    """

    raw: np.ndarray
    normalized: np.ndarray
    walk: WalkConfig
    walkers_used: np.ndarray
    converged: np.ndarray
    batches: np.ndarray
    psrf: np.ndarray
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


def random_walk(
    mask: Graph, start: int, stepnum: int, rng: np.random.Generator
) -> np.ndarray:
    """One truncated walk: the start, then the node each step lands on.

    Every step moves to a uniformly random neighbor: draw u picks entry
    floor(u * degree) of the current node's ascending row in ``mask.csr``.
    Only a start with no neighbors in the walk graph ends the walk early: a
    step along an undirected edge lands on a node that has at least the
    neighbor it came from. So the path holds either 1 or stepnum + 1 nodes. This is the
    one-walk definition that the round engine reproduces.
    """
    if not (0 <= start < mask.num_nodes):
        raise ValueError(f"start node {start} not in walk graph")
    indptr, indices = mask.csr
    path = [start]
    current = start
    for u in rng.random(stepnum):
        first, degree = indptr[current], indptr[current + 1] - indptr[current]
        if degree == 0:
            break
        current = int(indices[first + int(u * degree)])
        path.append(current)
    return np.array(path, dtype=np.int64)


def psrf(batch: WalkBatch) -> float:
    """Potential scale reduction factor over the batch's visit counts.

    Walkers split into two equal chains in arrival order; an odd trailing
    walk is left out. Per node: W is the mean within-chain variance, B/n
    the variance of chain means, and the pooled estimate
    V = ((n-1)/n) W + B/n gives sqrt(V / W). Returns the maximum over nodes
    with W > 0; when no node varies within chains there is nothing left to
    learn and the result is exactly 1.
    """
    n = batch.num_walks // 2
    if n < 2:
        raise ValueError("each chain needs at least 2 walks")
    chains = batch.visits[:2 * n].reshape(2, n, -1).astype(float)
    within = chains.var(axis=1, ddof=1).mean(axis=0)
    means = chains.mean(axis=1)
    between_over_n = means.var(axis=0, ddof=1)
    active = within > 0.0
    if not active.any():
        return 1.0
    pooled = (n - 1) / n * within[active] + between_over_n[active]
    return float(np.sqrt(pooled / within[active]).max())


def _walk_uniforms(
    seed: int, origins: np.ndarray, walks: np.ndarray, stepnum: int
) -> np.ndarray:
    """Each walk's first ``stepnum`` draws of ``random()``, for many walks at once.

    One row per (origin, walk) pair. Walk w of ``origin`` draws what
    ``np.random.Generator(np.random.Philox(key=k))`` draws, with the key
    k = [seed mod 2^64, (origin mod 2^32) << 32 | (w mod 2^32)]. This is
    numpy's Philox4x64-10 written out over arrays: the walk's j-th
    block of four words enciphers the counter j (from 1), and a word x
    gives the double (x >> 11) * 2^-53. The 64-bit products are taken from
    32-bit halves, so no intermediate overflows.
    """
    keyed = ((np.asarray(origins).astype(np.uint64) & _LOW32) << _SHIFT32) | (
        np.asarray(walks).astype(np.uint64) & _LOW32
    )
    blocks = -(-stepnum // 4)
    key = np.repeat(keyed, blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(keyed))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_W[0]) % (1 << 64))
        k1 = key + np.uint64(r * _PHILOX_W[1] % (1 << 64))
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=1).reshape(len(keyed), 4 * blocks)
    return (words[:, :stepnum] >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    low_low = a_lo * b_lo
    high_low = a_hi * b_lo
    low_high = a_lo * b_hi
    carry = ((low_low >> _SHIFT32) + (high_low & _LOW32) + (low_high & _LOW32)) >> _SHIFT32
    high = a_hi * b_hi + (high_low >> _SHIFT32) + (low_high >> _SHIFT32) + carry
    return high, np.uint64(a) * b


def _walk_paths(
    indptr: np.ndarray, indices: np.ndarray, starts: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``random_walk`` for many starts at once, one path per row.

    The walk graph is in CSR form (neighbors of v are
    ``indices[indptr[v]:indptr[v + 1]]``, ascending). No start may be
    isolated, so every walk takes all its steps.
    """
    paths = np.empty((len(starts), uniforms.shape[1] + 1), dtype=np.int64)
    paths[:, 0] = current = starts
    for t in range(uniforms.shape[1]):
        first = indptr[current]
        degree = indptr[current + 1] - first
        current = indices[first + (uniforms[:, t] * degree).astype(np.int64)]
        paths[:, t + 1] = current
    return paths


def _visit_counts(paths: np.ndarray) -> WalkBatch:
    """Visit counts per walk (row of ``paths``), over the visited nodes only."""
    nodes, column = np.unique(paths.ravel(), return_inverse=True)
    row = np.repeat(np.arange(len(paths)), paths.shape[1])
    visits = np.bincount(row * len(nodes) + column, minlength=len(paths) * len(nodes))
    return WalkBatch(visits.reshape(len(paths), len(nodes)), nodes)


def _walk_rounds(
    mask: Graph, starts: Sequence[int], cfg: WalkConfig
) -> Iterator[tuple[int, WalkBatch]]:
    """Converged walk batches from every start, in rounds.

    Round k draws batch k (walks (k-1)·walknum to k·walknum - 1) of every
    start still running, all in one call. Then each of those starts counts
    visits over all its walks so far and runs the diagnostic on them, split
    into two arrival-order chains (see ``psrf``). A start stops once the value falls inside the convergence
    window, or after ``cfg.max_batches`` batches with ``converged=False``;
    the engine then yields (its position in ``starts``, its batch). Walk w
    of start s draws from the Philox stream keyed
    [cfg.seed mod 2^64, s << 32 | w] (see ``_walk_uniforms``), so a start's
    batch does not depend on the other starts.
    """
    if cfg.stepnum is None:
        raise ValueError("stepnum unresolved; set WalkConfig.stepnum")
    indptr, indices = mask.csr
    degree = np.diff(indptr)
    starts = np.asarray(starts, dtype=np.int64)
    outside = starts[(starts < 0) | (starts >= mask.num_nodes)]
    if len(outside):
        raise ValueError(f"start node {outside[0]} not in walk graph")
    # an isolated start's walks are [start]; every other walk takes all steps
    width = np.where(degree[starts] > 0, cfg.stepnum + 1, 1)
    paths = [np.empty((0, w), dtype=np.int64) for w in width]
    active = np.arange(len(starts))
    for batches in range(1, cfg.max_batches + 1):
        origin = np.repeat(starts[active], cfg.walknum)
        walk = np.tile(np.arange((batches - 1) * cfg.walknum, batches * cfg.walknum),
                       len(active))
        steps = np.repeat(origin[:, None], cfg.stepnum + 1, axis=1)
        moving = degree[origin] > 0
        uniforms = _walk_uniforms(cfg.seed, origin[moving], walk[moving], cfg.stepnum)
        steps[moving] = _walk_paths(indptr, indices, origin[moving], uniforms)
        running = []
        for j, i in enumerate(active.tolist()):
            block = steps[j * cfg.walknum:(j + 1) * cfg.walknum, :width[i]]
            paths[i] = np.concatenate([paths[i], block])
            batch = _visit_counts(paths[i])
            value = psrf(batch)
            converged = cfg.psrf_low <= value <= cfg.psrf_high
            if converged or batches == cfg.max_batches:
                yield i, replace(batch, converged=converged, psrf_value=value,
                                 batches=batches)
            else:
                running.append(i)
        if not running:
            return
        active = np.array(running)


def run_converged_walks(mask: Graph, start: int, cfg: WalkConfig) -> WalkBatch:
    """Accumulate walk batches from ``start`` until the diagnostic settles.

    The round engine run for one start; see ``_walk_rounds``.
    """
    return next(_walk_rounds(mask, [start], cfg))[1]


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
    labels: np.ndarray,
    bset: BoundarySet,
    cfg: WalkConfig,
) -> VisitScores:
    """Boundary vicinity scores for every node of ``g``, from its community ``labels``.

    An unset ``cfg.stepnum`` resolves to ``default_step_count`` of the
    graph size (1 for a one-node graph); the resolved config comes back as
    ``VisitScores.walk``. All walks run on one walk graph, ``g`` without
    its cross-community edges (``community_mask``), so a walk stays in its
    origin's community and node ids stay global. For each boundary node
    (ascending id) the converged visit counts are summed, divided by the
    number of walkers used (so extra batches taken to converge do not
    inflate mass), scaled by relative community size, and added into the
    graph-wide score vector. ``normalized`` then divides by the maximum.
    With no boundary node every score is 0 and ``warning`` says why.

    All origins walk together in rounds (``_walk_rounds``), and each walk
    draws from its own RNG substream keyed by (seed, origin, walk index),
    so an origin's result does not depend on the others or on when it
    settles.
    """
    if cfg.stepnum is None:
        stepnum = default_step_count(g.num_nodes) if g.num_nodes >= 2 else 1
        cfg = replace(cfg, stepnum=stepnum)
    origins = bset.boundary_nodes
    walkers_used = np.zeros(len(origins), dtype=np.int64)
    converged = np.zeros(len(origins), dtype=bool)
    batches = np.zeros(len(origins), dtype=np.int64)
    last_psrf = np.zeros(len(origins))
    origin_sizes = np.bincount(labels)[labels[origins]]
    # each origin's visited nodes and scaled mass, added in ascending origin order
    mass: list = [None] * len(origins)
    for i, batch in _walk_rounds(community_mask(g, labels), origins, cfg):
        walkers_used[i], converged[i] = batch.num_walks, batch.converged
        batches[i], last_psrf[i] = batch.batches, batch.psrf_value
        per_walker = batch.visits.sum(axis=0) / batch.num_walks
        mass[i] = (batch.nodes,
                   scale_community_weights(per_walker, int(origin_sizes[i]), g.num_nodes))
    raw = np.zeros(g.num_nodes)
    for nodes, scaled in mass:
        raw[nodes] += scaled
    peak = raw.max(initial=0.0)
    normalized = raw / peak if peak > 0 else raw.copy()
    for per_origin in (walkers_used, converged, batches, last_psrf):
        per_origin.flags.writeable = False
    return VisitScores(
        raw=raw, normalized=normalized, walk=cfg, walkers_used=walkers_used,
        converged=converged, batches=batches, psrf=last_psrf,
        warning=None if len(origins) else "no boundary nodes: no community structure to bridge",
    )
