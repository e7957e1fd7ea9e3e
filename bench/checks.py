"""Checks of the program's outputs against computations made apart from it.

Nothing here imports the program. Every expected value is recomputed from
the input files with numpy/scipy, or is a property the method must have.
No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

# the statistical score tolerances hold with probability at least 1 - DELTA
DELTA = 1e-6
FLOAT_RTOL = 1e-9


@dataclass
class Report:
    """Outcome of every check, plus figures worth printing."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


@dataclass
class EdgeFile:
    """An edge list parsed as the README specifies.

    ``names`` is in first-seen order, the order in which the program
    assigns dense ids; ``src``/``dst`` hold each simple edge once.
    """

    names: list[str]
    index: dict[str, int]
    src: np.ndarray
    dst: np.ndarray

    @property
    def n(self) -> int:
        return len(self.names)


def read_edges(path: Path) -> EdgeFile:
    names: list[str] = []
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    with open(path) as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            ids = []
            for token in text.replace(",", " ").split():
                if token not in index:
                    index[token] = len(names)
                    names.append(token)
                ids.append(index[token])
            pairs.append((ids[0], ids[1]))
    e = np.array(pairs, dtype=np.int64)
    e = e[e[:, 0] != e[:, 1]]
    e = np.unique(np.sort(e, axis=1), axis=0)
    return EdgeFile(names, index, e[:, 0], e[:, 1])


def read_rows(path: Path) -> list[list[str]]:
    """CSV rows without comment lines and without the header row."""
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    return [line.split(",") for line in lines[1:] if line]


def by_node(g: EdgeFile, rows: list[list[str]], column: int, dtype) -> np.ndarray:
    """One value per node, in dense-id order, from a node-keyed CSV."""
    out = np.zeros(g.n, dtype=dtype)
    seen = np.zeros(g.n, dtype=bool)
    for row in rows:
        v = g.index[row[0]]
        out[v] = dtype(row[column])
        seen[v] = True
    if not seen.all() or len(rows) != g.n:
        raise ValueError("file does not list every node exactly once")
    return out


def _adjacency(n: int, src: np.ndarray, dst: np.ndarray):
    return coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)).tocsr()


# ---------------------------------------------------------------------------
# communities and boundary


@dataclass
class Communities:
    labels: np.ndarray
    sizes: np.ndarray  # members per label
    piece: np.ndarray  # per node, its connected piece of the confined graph
    largest: np.ndarray  # per label, the id of its largest piece
    disconnected: int  # communities made of more than one piece
    fragments: int  # pieces beyond the largest, summed over communities


def check_communities(g: EdgeFile, labels: np.ndarray, manifest: dict,
                      report: Report) -> Communities:
    """Modularity recomputed from the labels, and connectivity of every community."""
    m = len(g.src)
    ls, ld = labels[g.src], labels[g.dst]
    k = int(labels.max()) + 1
    internal = np.bincount(ls[ls == ld], minlength=k)
    ends = np.bincount(ls, minlength=k) + np.bincount(ld, minlength=k)
    q = float(np.sum(internal / m - (ends / (2.0 * m)) ** 2))
    report.check("modularity recomputed",
                 math.isclose(q, manifest["modularity"], rel_tol=FLOAT_RTOL, abs_tol=1e-12),
                 f"{q!r} vs manifest {manifest['modularity']!r}")
    if k > 1:
        report.check("modularity >= q_threshold", q >= manifest["q_threshold"],
                     f"{q:.4f} vs {manifest['q_threshold']}")
    sizes = np.bincount(labels, minlength=k)
    report.check("community labels dense", k == manifest["num_communities"]
                 and bool((sizes > 0).all()), f"{k} labels")

    keep = ls == ld
    _, piece = connected_components(_adjacency(g.n, g.src[keep], g.dst[keep]),
                                    directed=False)
    pairs = np.unique(np.stack([labels, piece], axis=1), axis=0)
    pieces = np.bincount(pairs[:, 0], minlength=k)
    piece_size = np.bincount(piece)
    largest = np.full(k, -1)
    for c, p in pairs[np.argsort(piece_size[pairs[:, 1]], kind="stable")]:
        largest[c] = p  # ascending size, so the last write is the largest piece
    return Communities(labels, sizes, piece, largest,
                       disconnected=int(np.sum(pieces > 1)),
                       fragments=int(np.sum(pieces - 1)))


def check_boundary(g: EdgeFile, comm: Communities, rows: list[list[str]],
                   report: Report) -> np.ndarray:
    """Boundary edges recomputed from the labels; returns the boundary-node mask."""
    labels = comm.labels
    cross = labels[g.src] != labels[g.dst]
    expected = {(g.names[u], g.names[v], int(labels[u]), int(labels[v]))
                for u, v in zip(g.src[cross].tolist(), g.dst[cross].tolist())}
    got = [(r[0], r[1], int(r[2]), int(r[3])) for r in rows]
    report.check("boundary edges recomputed",
                 len(got) == len(expected) and set(got) == expected,
                 f"{len(got)} rows, {len(expected)} crossing edges")
    mask = np.zeros(g.n, dtype=bool)
    mask[g.src[cross]] = True
    mask[g.dst[cross]] = True
    return mask


# ---------------------------------------------------------------------------
# walker scores


def check_scores(g: EdgeFile, comm: Communities, boundary: np.ndarray,
                 raw: np.ndarray, manifest: dict, report: Report) -> None:
    """Compare Monte Carlo scores with the exact expected score.

    exact = sum_c |c|/N * 1_{B in c} * sum_{t=0..stepnum} P_c^t, where P_c
    moves uniformly along edges inside the community and dead-end rows are
    zero, which matches a walk stopping at a node with no inner neighbour.
    The per-node tolerance is Bernstein's bound for the sum of independent
    per-walk contributions, using the walker counts from the manifest.
    """
    n, s = g.n, int(manifest["walk"]["stepnum"])
    walknum = int(manifest["walk"]["walknum"])
    labels = comm.labels
    keep = labels[g.src] == labels[g.dst]
    tail = np.concatenate([g.src[keep], g.dst[keep]])
    head = np.concatenate([g.dst[keep], g.src[keep]])
    deg = np.bincount(tail, minlength=n)
    step = 1.0 / deg[tail]

    def propagate(x: np.ndarray) -> np.ndarray:
        total = x.copy()
        for _ in range(s):
            x = np.bincount(head, weights=x[tail] * step, minlength=n)
            total += x
        return total

    origins = np.flatnonzero(boundary)
    used = manifest["walkers_used"]
    keys_ok = set(used) == {str(v) for v in origins.tolist()} == set(manifest["converged"])
    report.check("manifest walker records cover the boundary", keys_ok,
                 f"{len(used)} records, {len(origins)} boundary nodes")
    if not keys_ok:
        return
    walks = np.array([used[str(v)] for v in origins.tolist()], dtype=float)
    report.check("walkers per origin are whole batches",
                 bool(np.all((walks >= walknum) & (walks % walknum == 0))))
    scale = comm.sizes[labels[origins]] / n
    x0 = np.zeros(n)
    x0[origins] = scale
    exact = propagate(x0)
    v0 = np.zeros(n)
    v0[origins] = scale ** 2 * (s + 1) / walks
    var = propagate(v0)
    log_term = math.log(2 * n / DELTA)
    largest_step = float(np.max(scale * (s + 1) / walks))  # one walk's largest contribution
    tol = np.sqrt(2.0 * var * log_term) + (2.0 / 3.0) * largest_step * log_term
    err = np.abs(raw - exact)

    outside = (exact == 0) & (raw != 0)
    report.check("no score outside the exact support", not outside.any(),
                 f"{int(outside.sum())} nodes")
    report.check("per-node score within tolerance", bool(np.all(err <= tol)),
                 f"worst error/tolerance {float(np.max(err / tol)):.3f}")

    # a walk can stop early only if a dead end lies within stepnum - 1 steps
    near_dead_end = deg == 0
    for _ in range(s - 1):
        near_dead_end = near_dead_end | (
            np.bincount(tail, weights=near_dead_end[head], minlength=n) > 0)
    stoppers = near_dead_end[origins]
    mass, exact_mass = float(raw.sum()), float(exact.sum())
    if stoppers.any():
        ranges = scale[stoppers] * s / walks[stoppers]
        mass_tol = math.sqrt(float(np.sum(walks[stoppers] * ranges ** 2))
                             * math.log(2 / DELTA) / 2)
    else:
        mass_tol = FLOAT_RTOL * exact_mass
    report.check("score mass equals exact mass", abs(mass - exact_mass) <= mass_tol,
                 f"{mass!r} vs {exact_mass!r} (tolerance {mass_tol:.3g}, "
                 f"{int(stoppers.sum())} origins can stop early)")
    top = float(exact.max())
    report.figures.update({
        "oracle.correlation": float(np.corrcoef(raw, exact)[0, 1]),
        "oracle.max_error_share_of_top": float(err.max() / top),
        "oracle.worst_error_over_tolerance": float(np.max(err / tol)),
        "oracle.fragment_origins": int(np.sum(
            comm.piece[origins] != comm.largest[labels[origins]])),
        "oracle.boundary_nodes": int(len(origins)),
        "oracle.walks": int(walks.sum()),
    })


# ---------------------------------------------------------------------------
# evaluation flow


def check_betweenness(g: EdgeFile, values: np.ndarray, report: Report) -> None:
    """sum_v b(v) equals sum over connected pairs s<t of (d(s,t) - 1)."""
    adj = _adjacency(g.n, g.src, g.dst)
    total = 0.0
    for block in np.array_split(np.arange(g.n), max(1, g.n // 500)):
        d = shortest_path(adj, directed=False, unweighted=True, indices=block)
        reached = np.isfinite(d) & (d > 0)
        total += float(np.sum(d[reached] - 1.0))
    expected = total / 2.0
    rel = abs(float(values.sum()) - expected) / max(expected, 1.0)
    report.check("betweenness sum equals distance sum", rel <= FLOAT_RTOL,
                 f"relative error {rel:.2g}")
    report.check("betweenness nonnegative", bool(np.all(values >= 0)))
    report.figures["betweenness.relative_error"] = rel


def check_overlap(g: EdgeFile, a: np.ndarray, b: np.ndarray,
                  rows: list[list[str]], max_k: int, report: Report) -> None:
    """Overlap proportions are k-ths, and equal top-k sets recomputed here.

    The program ranks by descending value with ties going to the earlier
    node in numeric order of node tokens.
    """
    order = np.argsort(np.array([int(name) for name in g.names]), kind="stable")
    a, b = a[order], b[order]
    n = g.n
    pos_a = np.empty(n, dtype=np.int64)
    pos_b = np.empty(n, dtype=np.int64)
    pos_a[np.lexsort((np.arange(n), -a))] = np.arange(n)
    pos_b[np.lexsort((np.arange(n), -b))] = np.arange(n)
    shared = np.cumsum(np.bincount(np.maximum(pos_a, pos_b), minlength=n))
    ks = [int(r[0]) for r in rows]
    props = [float(r[1]) for r in rows]
    whole = all(0 <= k * p <= k and abs(k * p - round(k * p)) < 1e-9
                for k, p in zip(ks, props))
    report.check("overlap k*p is an integer in [0, k]", whole, f"{len(ks)} values")
    report.check("overlap equals recomputed top-k sets",
                 ks == list(range(1, min(max_k, n) + 1))
                 and all(p == shared[k - 1] / k for k, p in zip(ks, props)))


def check_temporal(g: EdgeFile, boundary: np.ndarray, stamps: np.ndarray,
                   tokens: np.ndarray, window: int, bursts: tuple[int, ...],
                   rows: list[list[str]], spikes: dict, report: Report) -> None:
    """Window totals and boundary activity recomputed from the event stream."""
    id_of_token = np.empty(g.n, dtype=np.int64)
    id_of_token[np.array([int(name) for name in g.names])] = np.arange(g.n)
    ids = id_of_token[tokens]
    win = (stamps - stamps.min()) // window
    totals = np.array([int(r[1]) for r in rows])
    active = np.array([int(r[2]) for r in rows])
    control = np.array([int(r[3]) for r in rows])
    expected_totals = np.bincount(win)
    in_b = boundary[ids]
    pairs = np.unique(np.stack([win[in_b], ids[in_b]], axis=1), axis=0)
    expected_active = np.bincount(pairs[:, 0], minlength=len(expected_totals))
    size_b = int(boundary.sum())
    report.check("window totals sum to the event count", int(totals.sum()) == len(stamps),
                 f"{int(totals.sum())} vs {len(stamps)}")
    report.check("window totals recomputed", np.array_equal(totals, expected_totals))
    report.check("boundary_active recomputed", np.array_equal(active, expected_active))
    report.check("boundary set size matches the pipeline",
                 spikes["num_boundary_nodes"] == size_b,
                 f"{spikes['num_boundary_nodes']} vs {size_b}")
    report.check("active counts never exceed |B|",
                 active.max() <= size_b and control.max() <= size_b)
    for series in ("total", "boundary_active"):
        flagged = set(spikes["series"][series]["spike_windows"])
        report.check(f"planted bursts flagged in {series}", set(bursts) <= flagged,
                     f"bursts {list(bursts)}, flagged {sorted(flagged)[:12]}")
