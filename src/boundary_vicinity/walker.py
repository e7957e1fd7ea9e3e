"""Confined truncated random walks from boundary nodes, with convergence control.

Each boundary node launches batches of independent fixed-length walkers that
never leave the node's own community (edges crossing community lines are
absent from the walk graph). Batches accumulate until the per-node visit
counts pass a Gelman-Rubin style convergence window, then the counts are
normalized per walker, scaled by relative community size, and merged into a
single score vector over the whole graph. Each origin draws from its own
Philox stream, so origins are independent units of work; ``bva`` steps them
together, round by round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .boundary import BoundarySet
from .community import community_mask
from .graph import Graph

# bva walks origins in chunks of _CHUNK_ENTRIES // (walknum * max_batches * (stepnum + 1))
# (at least one), so a round's paths, visit keys and recheck matrix stay below about
# this many entries each
_CHUNK_ENTRIES = 1 << 20
# nodes whose approximate PSRF lies within this relative distance of their origin's
# largest get psrf's own arithmetic; that and the approximation each lie within
# about 1e-13 of the exact value
_RECHECK_RTOL = 1e-9


@dataclass(frozen=True)
class WalkConfig:
    """Walker batch sizing, convergence window, and the run's seed.

    ``walknum`` walkers are run per convergence check; at least 4 so the
    diagnostic has two chains of two draws. ``stepnum`` is the fixed walk
    length; None means derive it from the graph size via
    ``default_step_count`` when the run starts. The run is declared
    converged once the diagnostic lands inside [psrf_low, psrf_high],
    giving up (flagged, never silent) after ``max_batches`` batches.
    ``seed`` keys each origin's walk stream and, in ``run_pipeline``, Louvain.
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
    one-walk definition that ``run_converged_walks`` steps a batch at a time
    and ``bva`` steps for all origins at once; the tests hold both to it.
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
    learn and the result is exactly 1. This is the one-origin definition
    that ``bva``'s batched diagnostic is tested against.
    """
    n = batch.num_walks // 2
    if n < 2:
        raise ValueError("each chain needs at least 2 walks")
    values = _chain_psrf(batch.visits[:2 * n].reshape(2, n, -1).astype(float))
    return float(values.max()) if len(values) else 1.0


def _chain_psrf(chains: np.ndarray) -> np.ndarray:
    """sqrt(V / W) of each column of ``chains`` (2 chains, n walks, columns) with W > 0.

    Every sum over walks runs down a column on its own, in walk order, as
    long as there are at least two columns; so a column's value does not
    depend on the other columns.
    """
    n = chains.shape[1]
    within = chains.var(axis=1, ddof=1).mean(axis=0)
    means = chains.mean(axis=1)
    between_over_n = means.var(axis=0, ddof=1)
    active = within > 0.0
    pooled = (n - 1) / n * within[active] + between_over_n[active]
    return np.sqrt(pooled / within[active])


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


def _origin_stream(seed: int, start: int) -> np.random.Generator:
    """The Philox stream of the walks from ``start``, keyed [seed mod 2^64, start]."""
    # a uint64 key: a list key goes through float64 for seeds of 2^63 and above
    return np.random.Generator(np.random.Philox(
        key=np.array([seed % 2**64, start], dtype=np.uint64)))


def run_converged_walks(mask: Graph, start: int, cfg: WalkConfig) -> WalkBatch:
    """Accumulate walk batches from ``start`` until the diagnostic settles.

    The walks draw from one Philox stream keyed [cfg.seed mod 2^64, start]:
    batch b is ``rng.random((walknum, stepnum))``, one row per walk, so walk
    w takes draws w·stepnum to (w+1)·stepnum - 1 and depends only on the
    seed, the start, w and stepnum. After each batch the visits are counted
    over all walks so far and the diagnostic runs on them, split into two
    arrival-order chains (see ``psrf``). The run stops once the value falls
    inside the convergence window, or after ``cfg.max_batches`` batches with
    ``converged=False``. An isolated start's walks are [start] and draw nothing.

    This is the one-origin reference definition: ``bva`` runs every origin's
    walks together (``_converge_together``), and the tests require its
    results to equal this function's, origin by origin, to the bit.
    """
    if cfg.stepnum is None:
        raise ValueError("stepnum unresolved; set WalkConfig.stepnum")
    if not (0 <= start < mask.num_nodes):
        raise ValueError(f"start node {start} not in walk graph")
    indptr, indices = mask.csr
    rng = _origin_stream(cfg.seed, start)
    starts = np.full(cfg.walknum, start, dtype=np.int64)
    moving = indptr[start + 1] > indptr[start]
    blocks = []
    for batches in range(1, cfg.max_batches + 1):
        blocks.append(_walk_paths(indptr, indices, starts, rng.random((cfg.walknum, cfg.stepnum)))
                      if moving else starts[:, None])
        batch = _visit_counts(np.concatenate(blocks))
        value = psrf(batch)
        converged = cfg.psrf_low <= value <= cfg.psrf_high
        if converged or batches == cfg.max_batches:
            return replace(batch, converged=converged, psrf_value=value, batches=batches)


def scale_community_weights(
    visits: Sequence[float] | np.ndarray, community_size: int | np.ndarray, n_total: int
) -> np.ndarray:
    """Scale visit mass by relative community size, |community| / |graph|.

    Nodes in larger communities deliver a larger share of the graph-wide
    information flow, so their visit counts carry proportionally more weight.
    ``community_size`` is one size, or one per entry of ``visits``.
    """
    if n_total < 1:
        raise ValueError("total node count must be positive")
    if np.any(np.asarray(community_size) > n_total):
        raise ValueError("community cannot exceed the whole graph")
    return np.asarray(visits, dtype=float) * (community_size / n_total)


def _sparse_psrf(paths: np.ndarray, num_nodes: int):
    """``psrf`` of each origin's walks, from sparse visit counts, with ``psrf``'s bits.

    ``paths`` is (origins, walks, stepnum + 1): row o holds origin o's walks
    so far, in arrival order. The visits are counted with one sort of
    (origin, node, walk) keys. Exact integer sums per (origin, node, chain)
    then give each node's value up to rounding: with D the difference of
    the two chain sums and Q = n·(sum of squares) - (each chain sum squared),
    V/W = (n-1)/n · (1 + D²/Q), and W > 0 exactly when Q > 0. ``psrf``'s own
    arithmetic is re-run on the nodes within ``_RECHECK_RTOL`` of their
    origin's largest value only.

    Returns the value per origin, then one (origin, node, visits) row per
    visited node, ascending.
    """
    origins, walks = paths.shape[:2]
    n = walks // 2
    keys = paths + (np.arange(origins) * num_nodes)[:, None, None]
    keys *= walks
    keys += np.arange(walks)[:, None]
    keys = np.sort(keys, axis=None)
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    count = np.diff(first, append=len(keys)).astype(float)
    cell, walk = np.divmod(keys[first], walks)
    new_cell = np.diff(cell, prepend=-1) != 0
    group = np.cumsum(new_cell) - 1
    cell = cell[new_cell]
    chain = np.minimum(walk // n, 2)  # chain 2 is an odd trailing walk, left out
    sums = np.bincount(group * 3 + chain, weights=count, minlength=3 * len(cell)).reshape(-1, 3)
    squares = np.bincount(group[chain < 2], weights=count[chain < 2] ** 2, minlength=len(cell))
    q = n * squares - sums[:, 0] ** 2 - sums[:, 1] ** 2
    active = q > 0
    approx = np.zeros(len(cell))
    approx[active] = np.sqrt((n - 1) / n * (
        1 + (sums[active, 0] - sums[active, 1]) ** 2 / q[active]))
    owner = cell // num_nodes
    top = np.maximum.reduceat(approx, np.flatnonzero(np.diff(owner, prepend=-1)))
    near = active & (approx >= top[owner] * (1 - _RECHECK_RTOL))

    value = np.ones(origins)  # no node varies within chains: exactly 1
    if near.any():
        column = np.cumsum(near) - 1
        take = near[group] & (chain < 2)
        rows, cols, cells = walk[take], column[group[take]], count[take]
        total, width = int(column[-1]) + 1, max(1, _CHUNK_ENTRIES // (2 * n) - 1)
        exact = []
        for lo in range(0, total, width):
            part = (cols >= lo) & (cols < lo + width)
            # one all-zero column more keeps every sum over walks running down its
            # column in walk order, as on the full matrix; numpy would sum a lone
            # column pairwise, which rounds differently
            dense = np.zeros((2 * n, min(width, total - lo) + 1))
            dense[rows[part], cols[part] - lo] = cells[part]
            exact.append(_chain_psrf(dense.reshape(2, n, -1)))
        holder = owner[near]
        edges = np.flatnonzero(np.diff(holder, prepend=-1))
        value[holder[edges]] = np.maximum.reduceat(np.concatenate(exact), edges)
    return value, owner, cell % num_nodes, sums.sum(axis=1)


def _converge_together(mask: Graph, starts: np.ndarray, cfg: WalkConfig):
    """``run_converged_walks`` for every start at once, with the same bits.

    Round b steps batch b of every start still running with one
    ``_walk_paths`` call, each start drawing ``rng.random((walknum,
    stepnum))`` from its own stream, then takes each one's diagnostic over
    all its walks so far with ``_sparse_psrf``. A start leaves once it
    converges or after ``cfg.max_batches`` batches.

    Returns per start (batches, converged, psrf), then the visit totals as
    (start position, node, visits) rows in ascending start position.
    """
    indptr, indices = mask.csr
    walknum, stepnum = cfg.walknum, cfg.stepnum
    batches = np.ones(len(starts), dtype=np.int64)
    converged = np.ones(len(starts), dtype=bool)
    diagnostic = np.ones(len(starts))
    # an isolated start's walks are [start], whose diagnostic is 1 after one batch
    isolated = np.flatnonzero(indptr[starts + 1] == indptr[starts])
    found = [(isolated, starts[isolated], np.full(len(isolated), float(walknum)))]
    running = np.flatnonzero(indptr[starts + 1] > indptr[starts])
    streams = [_origin_stream(cfg.seed, start) for start in starts.tolist()]
    paths = np.empty((len(starts), cfg.max_batches * walknum, stepnum + 1), dtype=np.int64)
    for b in range(1, cfg.max_batches + 1):
        if not len(running):
            break
        uniforms = np.empty((len(running), walknum, stepnum))
        for i, out in zip(running.tolist(), uniforms):
            streams[i].random(out=out)
        paths[running, (b - 1) * walknum:b * walknum] = _walk_paths(
            indptr, indices, np.repeat(starts[running], walknum),
            uniforms.reshape(-1, stepnum)).reshape(len(running), walknum, stepnum + 1)
        value, owner, nodes, visits = _sparse_psrf(paths[running, :b * walknum],
                                                   mask.num_nodes)
        settled = (cfg.psrf_low <= value) & (value <= cfg.psrf_high)
        leave = settled | (b == cfg.max_batches)
        done = running[leave]
        batches[done], converged[done], diagnostic[done] = b, settled[leave], value[leave]
        mine = leave[owner]
        found.append((running[owner[mine]], nodes[mine], visits[mine]))
        running = running[~leave]
    position, nodes, visits = (np.concatenate(parts) for parts in zip(*found))
    order = np.argsort(position, kind="stable")
    return batches, converged, diagnostic, position[order], nodes[order], visits[order]


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

    Each origin walks on its own Philox stream, keyed by (seed, origin),
    and gets exactly what ``run_converged_walks`` gives it alone. The
    origins walk together, in chunks of ascending id that ``_CHUNK_ENTRIES``
    bounds (see ``_converge_together``), and their mass is added in
    ascending id order.
    """
    if cfg.stepnum is None:
        stepnum = default_step_count(g.num_nodes) if g.num_nodes >= 2 else 1
        cfg = replace(cfg, stepnum=stepnum)
    origins = bset.boundary_nodes
    batches = np.zeros(len(origins), dtype=np.int64)
    converged = np.zeros(len(origins), dtype=bool)
    last_psrf = np.zeros(len(origins))
    sizes = np.bincount(labels)[labels[origins]]
    mask = community_mask(g, labels)
    raw = np.zeros(g.num_nodes)
    chunk = max(1, _CHUNK_ENTRIES // (cfg.walknum * cfg.max_batches * (cfg.stepnum + 1)))
    for first in range(0, len(origins), chunk):
        part = slice(first, first + chunk)
        batches[part], converged[part], last_psrf[part], position, nodes, visits = (
            _converge_together(mask, origins[part], cfg))
        per_walker = visits / (batches[part][position] * cfg.walknum)
        # rows come in ascending origin order and np.add.at adds them one by one, so
        # each score sums its origins' mass in the order of one origin at a time
        np.add.at(raw, nodes, scale_community_weights(
            per_walker, sizes[part][position], g.num_nodes))
    walkers_used = batches * cfg.walknum
    peak = raw.max(initial=0.0)
    normalized = raw / peak if peak > 0 else raw.copy()
    for per_origin in (walkers_used, converged, batches, last_psrf):
        per_origin.flags.writeable = False
    return VisitScores(
        raw=raw, normalized=normalized, walk=cfg, walkers_used=walkers_used,
        converged=converged, batches=batches, psrf=last_psrf,
        warning=None if len(origins) else "no boundary nodes: no community structure to bridge",
    )
