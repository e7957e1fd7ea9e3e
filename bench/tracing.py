"""Traced run: the workload's commands in-process, with every layer call timed.

The program is not changed. Module-level names inside the benchmark process
are replaced with wrappers that record a span (name, start, end, parent)
around each call and restored afterwards, so calls one layer makes into
another are caught where the caller looks the name up. Spans stay in
memory and are written out at the end with each layer's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs to wrap: the module is where the caller looks the name up
PATCHES = {
    "cli": ("load_edge_list", "run_pipeline", "detect_all_communities", "boundary_edges",
            "betweenness_brandes", "rank_overlap", "bin_events", "control_series",
            "detect_spikes", "preferential_attachment",
            "connect_communities", "write_edge_list", "write_scores_csv",
            "write_communities_csv", "write_boundary_csv", "write_betweenness_csv",
            "build_manifest"),
    "pipeline": ("detect_all_communities", "connected_components", "subgraph",
                 "detect_communities", "modularity", "boundary_edges", "bva"),
    "community": ("subgraph", "modularity"),
    "walker": ("community_mask", "run_converged_walks", "random_walk", "psrf",
               "scale_community_weights"),
    "temporal": ("bin_events",),
    "generators": ("connected_components", "build_graph"),
    "graph": ("build_graph",),
}

WRITERS = ("pipeline.write_scores_csv", "pipeline.write_communities_csv",
           "pipeline.write_boundary_csv", "pipeline.write_betweenness_csv",
           "pipeline.build_manifest")

# per-layer time metric -> span names whose inclusive durations it sums
TIMED = {
    "graph.load_s": ("graph.load_edge_list",),
    "graph.components_s": ("graph.connected_components",),
    "graph.subgraph_s": ("graph.subgraph",),
    "community.louvain_s": ("community.detect_communities",),
    "community.modularity_s": ("community.modularity",),
    "community.mask_s": ("community.community_mask",),
    "boundary.extract_s": ("boundary.boundary_edges",),
    "walker.bva_s": ("walker.bva",),
    "walker.walks_s": ("walker.random_walk",),
    "walker.psrf_s": ("walker.psrf",),
    "centrality.brandes_s": ("centrality.betweenness_brandes",),
    "centrality.overlap_s": ("centrality.rank_overlap",),
    "temporal.bin_s": ("temporal.bin_events",),
    "temporal.control_s": ("temporal.control_series",),
    "temporal.spikes_s": ("temporal.detect_spikes",),
    "generators.pa_s": ("generators.preferential_attachment",),
    "generators.stitch_s": ("generators.connect_communities",),
    "pipeline.writers_s": WRITERS,
}


def _count(counts: dict, name: str, args: tuple, kwargs: dict, result) -> None:
    """Counts taken from arguments and results at the layer boundary."""
    if name == "graph.load_edge_list":
        counts["graph.load_edges"] += result.num_edges
    elif name == "community.detect_communities":
        counts["community.louvain_passes"] += result.passes
    elif name == "pipeline.detect_all_communities":
        counts["community.communities"] = result[0].num_communities
    elif name == "boundary.boundary_edges":
        counts["boundary.nodes"] = len(result.boundary_nodes)
        counts["boundary.edges"] = len(result.boundary_edges)
    elif name == "walker.run_converged_walks":
        counts["walker.walks"] += result.num_walks
        counts["walker.batches"] += result.batches
        counts["walker.unconverged"] += not result.converged
        counts["walker.visit_bytes"] += result.visits.nbytes
    elif name == "walker.psrf":
        counts["walker.psrf_cells"] += args[0].visits.size
    elif name == "temporal.bin_events" and kwargs.get("node_filter") is None:
        counts["temporal.events"] = len(args[0])


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)
        _count(self.counts, name, args, kwargs, result)
        return result

    def wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        return [end - start - inner[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def self_time_within(self, name: str) -> float:
        """Summed self times of the first span called ``name`` and all spans inside it."""
        root = next(i for i, span in enumerate(self.spans) if span[0] == name)
        inside = [False] * len(self.spans)  # parents precede their children
        for i, (_, _, _, parent) in enumerate(self.spans):
            inside[i] = i == root or (parent >= 0 and inside[parent])
        return sum(own for own, keep in zip(self.self_times(), inside) if keep)

    def inclusive(self, names: tuple[str, ...]) -> float:
        return sum(end - start for name, start, end, _ in self.spans if name in names)

    def write(self, path: Path) -> dict[str, float]:
        """Write spans and per-layer self times; return the latter."""
        selfs = self.self_times()
        layers: dict[str, float] = defaultdict(float)
        for (name, _, _, _), own in zip(self.spans, selfs):
            layers[name.split(".", 1)[0]] += own
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"layer_self_s": layers,
                       "columns": ["name", "start_s", "end_s", "parent", "self_s"]}, handle)
            handle.write("\n")
            for (name, start, end, parent), own in zip(self.spans, selfs):
                handle.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                         parent, round(own, 7)]) + "\n")
        return dict(layers)


def import_program(root: Path):
    """Import the checkout's package; returns (cli module, import seconds)."""
    if "boundary_vicinity" in sys.modules:
        raise RuntimeError("the program was imported before the traced run")
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("boundary_vicinity.cli")
    return cli, time.perf_counter() - start


def traced_run(root: Path, generate_argv: list[str], commands: list[tuple[str, list[str]]],
               trace_path: Path):
    """Trace generation and the workload's commands.

    Returns the tracer, the round's wall time, each layer's self time and
    the commands' exit codes.

    ``commands`` are (name, argv) pairs run through the CLI's ``main`` in this
    process, in the same order as the untraced round.
    """
    cli, import_s = import_program(root)
    modules = {name: importlib.import_module(f"boundary_vicinity.{name}") for name in PATCHES}
    tracer = Tracer()
    for module_name, attrs in PATCHES.items():
        for attr in attrs:
            tracer.wrap(modules[module_name], attr)
    try:
        tracer.call("bench.setup", cli.main, generate_argv)
        start = time.perf_counter()
        codes = tracer.call("bench.round", lambda: [
            tracer.call(f"cli.{name}", cli.main, argv) for name, argv in commands])
        round_s = time.perf_counter() - start
    finally:
        tracer.restore()
    layers = tracer.write(trace_path)
    tracer.counts["cli.import_s"] = import_s
    return tracer, round_s, layers, codes
