"""Workload definitions and input set-up for the bva benchmark.

Each workload's graph comes from ``bva generate`` with a fixed generator
seed, and ``bva pipeline`` runs with a fixed seed. Louvain's result, and
with it the boundary size and the walker's work, swings by a factor of two
between seeds (397 to 859 boundary nodes on 3xPA(5000, m=3), k=200), so a
graph drawn per run would make run-to-run spread measure the graph, not
the program. The benchmark's ``--seed`` instead draws a permutation of the
node tokens written to ``graph.edges`` (line order is kept, so the program
assigns the same dense ids and does the same work) and, for the evaluation
workload, the whole event stream and its burst windows. The same seed gives
the same files.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PIPELINE_SEED = 0

# event stream of the evaluation workload
NUM_EVENTS = 300_000
WINDOW_SECONDS = 60
NUM_WINDOWS = 500
NUM_BURSTS = 5
BURST_EVENTS_PER_NODE = 4
T0 = 1_600_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple[str, ...]  # `bva generate` arguments, without --out
    evaluate: bool  # also run betweenness, overlap and temporal
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-pa6k",
            generate=("planted", "--part-kind", "pa", "--n", "2000", "--m", "3",
                      "--k", "80", "--seed", "0"),
            evaluate=False,
            why="bva pipeline on 3xPA(2000,m=3) k=80 (6k nodes): Louvain and the "
                "walker share the work",
        ),
        Workload(
            name="evaluate-pa1.5k",
            generate=("planted", "--part-kind", "pa", "--n", "500", "--m", "3",
                      "--k", "30", "--seed", "0"),
            evaluate=True,
            why="README evaluation flow (pipeline, betweenness, overlap, temporal on "
                "300k events) on 3xPA(500,m=3) k=30: centrality and temporal dominate",
        ),
    )
}


@dataclass
class Inputs:
    """Files the program reads, plus what the checks need to know about them."""

    graph: Path
    events: Path | None
    burst_windows: tuple[int, ...]
    event_stamps: np.ndarray | None  # one entry per event line
    event_nodes: np.ndarray | None  # node tokens as ints, aligned with stamps

    def digest(self) -> str:
        h = hashlib.sha256(self.graph.read_bytes())
        if self.events is not None:
            h.update(self.events.read_bytes())
        return h.hexdigest()


def bva_command(*args: str) -> list[str]:
    """Command line for one `bva` subcommand run from the checkout's sources."""
    return [sys.executable, "-m", "boundary_vicinity.cli", *args]


def bva_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read_int_edges(path: Path) -> tuple[str, np.ndarray]:
    """Comment header and the (lines, 2) integer token array of a generated edge list."""
    header = []
    body = []
    with open(path) as handle:
        for line in handle:
            (header if line.startswith("#") else body).append(line)
    tokens = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
    return "".join(header), tokens


def set_up(workload: Workload, seed: int, root: Path, out: Path) -> Inputs:
    """Generate the workload's inputs under ``out`` from ``seed``."""
    out.mkdir(parents=True)
    gen = out / "gen"
    subprocess.run(
        bva_command("generate", *workload.generate, "--out", str(gen)),
        env=bva_env(root), check=True, stdout=subprocess.DEVNULL,
    )
    header, tokens = _read_int_edges(gen / "graph.edges")
    num_nodes = int(tokens.max()) + 1
    rng = np.random.default_rng([seed, 0x5EED])
    perm = rng.permutation(num_nodes)
    renamed = perm[tokens]
    graph = out / "graph.edges"
    with open(graph, "w") as handle:
        handle.write(header)
        handle.write(f"# node tokens permuted with benchmark seed {seed}\n")
        handle.write("\n".join(f"{a} {b}" for a, b in renamed.tolist()))
        handle.write("\n")
    if not workload.evaluate:
        return Inputs(graph, None, (), None, None)

    planted = np.loadtxt(gen / "planted_boundary.csv", dtype=np.int64,
                         comments="#", skiprows=2, ndmin=1)
    burst_nodes = perm[planted]
    bursts = np.sort(rng.choice(np.arange(10, NUM_WINDOWS - 10), size=NUM_BURSTS,
                                replace=False))
    per_burst = len(burst_nodes) * BURST_EVENTS_PER_NODE
    background = NUM_EVENTS - NUM_BURSTS * per_burst
    stamps = [T0 + rng.integers(0, NUM_WINDOWS * WINDOW_SECONDS, size=background)]
    stamps[0][0] = T0  # windows are counted from the first event
    nodes = [perm[rng.integers(0, num_nodes, size=background)]]
    for w in bursts:
        start = T0 + int(w) * WINDOW_SECONDS
        stamps.append(start + rng.integers(0, WINDOW_SECONDS, size=per_burst))
        nodes.append(np.repeat(burst_nodes, BURST_EVENTS_PER_NODE))
    stamp_all = np.concatenate(stamps)
    node_all = np.concatenate(nodes)
    order = np.argsort(stamp_all, kind="stable")
    stamp_all, node_all = stamp_all[order], node_all[order]
    events = out / "events.csv"
    with open(events, "w") as handle:
        handle.write("epoch_seconds,node_id\n")
        handle.write("\n".join(f"{t},{v}" for t, v in zip(stamp_all.tolist(),
                                                         node_all.tolist())))
        handle.write("\n")
    return Inputs(graph, events, tuple(int(w) for w in bursts), stamp_all, node_all)
