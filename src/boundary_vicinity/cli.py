"""Command-line front end.

Exit codes: 0 success, 1 usage error or out of memory, 2 unreadable or
malformed input, 3 scoring finished but too many boundary nodes failed to converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from array import array
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import boundary_edges
from .centrality import betweenness_brandes, rank_overlap
from .community import DEFAULT_Q_THRESHOLD
from .generators import connect_communities, erdos_renyi, preferential_attachment
from .graph import Graph, data_lines, load_edge_list, write_edge_list
from .pipeline import (
    build_manifest,
    build_scores_json,
    detect_all_communities,
    run_pipeline,
    write_betweenness_csv,
    write_boundary_csv,
    write_boundary_nodes_csv,
    write_communities_csv,
    write_components_csv,
    write_csv,
    write_node_table,
    write_scores_csv,
    write_scores_dot,
)
from .temporal import DEFAULT_Z_THRESHOLD, bin_events, control_series, detect_spikes
from .walker import WalkConfig

USAGE_ERROR = 1
INPUT_ERROR = 2
UNCONVERGED = 3


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        # argparse reports a subcommand's leftover arguments with the top-level usage
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            commands = next(a for a in self._actions if a.dest == "command")
            commands.choices[parsed.command].error(
                f"unrecognized arguments: {' '.join(extra)}")
        if "seed" in parsed:  # any integer, reduced once: numpy takes no negative seed
            parsed.seed %= 2**64
        return parsed

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


@contextmanager
def _naming(path: str):
    """Name ``path`` in each input error inside, as ``cannot read`` when it is unreadable."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@contextmanager
def _reading(path: str):
    """The input file at ``path``, open for one read inside ``_naming(path)``.

    It is read as UTF-8, and a byte-order mark at its start is dropped.
    """
    with _naming(path), open(path, encoding="utf-8-sig") as handle:
        yield handle


def _load_graph(path: str) -> Graph:
    with _reading(path) as handle:
        return load_edge_list(handle)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _read_labels(path: str, g: Graph) -> np.ndarray:
    """Node labels from a node_id,community_id CSV, as written by the communities command."""
    by_name = dict(zip(g.names, range(g.num_nodes)))
    labels = [-1] * g.num_nodes
    with _reading(path) as handle:
        for number, text in data_lines(handle, "node_id,community_id"):
            name, _, label = text.partition(",")
            v = by_name.get(name)
            try:
                community = int(label)
            except ValueError:
                community = -1
            if v is None:
                problem = f"unknown node {name!r}"
            elif labels[v] >= 0:
                problem = f"node {name!r} is listed twice"
            elif community < 0:
                problem = f"community {label!r} is not a nonnegative integer"
            else:
                labels[v] = community
                continue
            raise ValueError(f"line {number}: {problem}")
        if -1 in labels:
            raise ValueError("does not label every node of the graph")
    return np.array(labels)


def _read_scores(path: str) -> dict[str, float]:
    """Node score map from a CSV: the first field names the node, the last is its score.

    Only the first data line may be a header: a line whose last field is not a
    number, as a NaN is not.
    """
    scores: dict[str, float] = {}
    with _reading(path) as handle:
        for index, (number, text) in enumerate(data_lines(handle)):
            name, _, rest = text.partition(",")
            try:
                value = float(rest.rpartition(",")[2])
            except ValueError:
                value = math.nan
            if math.isnan(value):
                if index == 0:
                    continue  # the header
                raise ValueError(f"line {number}: no numeric score in {text!r}")
            if name in scores:
                raise ValueError(f"line {number}: node {name!r} is listed twice")
            scores[name] = value
        if not scores:
            raise ValueError("no score rows found")
    return scores


def _read_events(path: str, g: Graph) -> np.ndarray:
    """Load an epoch_seconds,node_id CSV as (N, 2) int64 ``[stamp, node]`` rows in file order."""
    by_name = dict(zip(g.names, range(g.num_nodes)))
    numbers = array("q")  # the line number of each event
    stamps: list[str] = []
    nodes: list[int] = []
    with _reading(path) as handle:
        for number, text in data_lines(handle, "epoch_seconds,node_id"):
            stamp, _, name = text.partition(",")
            node = by_name.get(name)
            if node is None:
                raise ValueError(f"line {number}: unknown node {name!r}")
            numbers.append(number)
            stamps.append(stamp)
            nodes.append(node)
        if not stamps:
            raise ValueError("no events found")
        events = np.empty((len(stamps), 2), dtype=np.int64)
        try:
            events[:, 0] = np.array(stamps, dtype=np.int64)
        except (ValueError, OverflowError):
            for number, stamp in zip(numbers, stamps):  # failure path: find the first bad stamp
                try:
                    np.array(stamp, dtype=np.int64)
                except (ValueError, OverflowError):
                    break
            raise ValueError(f"line {number}: "
                             f"timestamp {stamp!r} is not a 64-bit integer") from None
    events[:, 1] = nodes
    return events


def _walk_config(args) -> WalkConfig:
    """The WalkConfig of the parsed arguments named after its fields."""
    try:
        return WalkConfig(**{f.name: getattr(args, f.name) for f in fields(WalkConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_pipeline(args) -> int:
    walk = _walk_config(args)
    if not 0.0 <= args.unconverged_tolerance <= 1.0:
        raise UsageError(f"--unconverged-tolerance {args.unconverged_tolerance}: "
                         "expected a fraction in [0, 1]")
    g = _load_graph(args.input)
    result = run_pipeline(g, walk, q_threshold=args.q_threshold)
    out = _out_dir(args)
    with open(out / "scores.csv", "w") as handle:
        write_scores_csv(result, handle)
    if args.format == "json":
        _write_json(out / "scores.json", build_scores_json(result))
    elif args.format == "dot":
        with open(out / "scores.dot", "w") as handle:
            write_scores_dot(g, result.scores.normalized, handle)
    with open(out / "communities.csv", "w") as handle:
        write_communities_csv(g, result.labeling.labels, handle,
                              seed=walk.seed, q_threshold=args.q_threshold)
    with open(out / "boundary.csv", "w") as handle:
        write_boundary_csv(g, result.labeling.labels, result.bset, handle)
    _write_json(out / "manifest.json", build_manifest(result))
    if result.scores.warning:
        print(f"warning: {result.scores.warning}", file=sys.stderr)
    if result.unconverged_fraction > args.unconverged_tolerance:
        print(
            f"warning: {result.unconverged_fraction:.1%} of boundary nodes "
            "did not converge", file=sys.stderr,
        )
        return UNCONVERGED
    return 0


def cmd_components(args) -> int:
    g = _load_graph(args.input)
    with open(_out_dir(args) / "components.csv", "w") as handle:
        write_components_csv(g, handle)
    return 0


def cmd_communities(args) -> int:
    g = _load_graph(args.input)
    labeling, reports = detect_all_communities(g, seed=args.seed, q_threshold=args.q_threshold)
    out = _out_dir(args)
    with open(out / "communities.csv", "w") as handle:
        write_communities_csv(g, labeling.labels, handle,
                              seed=args.seed, q_threshold=args.q_threshold)
    _write_json(out / "communities.json", {
        "num_communities": labeling.num_communities,
        "modularity": labeling.modularity,
        "passes": sum(r.passes for r in reports),
        "local_moves": sum(r.local_moves for r in reports),
        "seed": args.seed,
        "q_threshold": args.q_threshold,
        "components": len(reports),
    })
    return 0


def cmd_boundary(args) -> int:
    g = _load_graph(args.input)
    labels = _read_labels(args.labels, g)
    bset = boundary_edges(g, labels)
    out = _out_dir(args)
    with open(out / "boundary.csv", "w") as handle:
        write_boundary_csv(g, labels, bset, handle)
    with open(out / "boundary_nodes.csv", "w") as handle:
        write_boundary_nodes_csv(g, labels, bset, handle)
    return 0


def cmd_betweenness(args) -> int:
    g = _load_graph(args.input)
    values = betweenness_brandes(g)
    with open(_out_dir(args) / "betweenness.csv", "w") as handle:
        write_betweenness_csv(g, values, handle)
    return 0


def cmd_overlap(args) -> int:
    a = _read_scores(args.a)
    b = _read_scores(args.b)
    for path, names, other, known in ((args.b, b, args.a, a), (args.a, a, args.b, b)):
        extra = next((name for name in names if name not in known), None)
        if extra is not None:
            raise ValueError(f"score files cover different node sets: {path} lists "
                             f"node {extra!r}, {other} does not")
    try:
        names = sorted(a, key=int)
    except ValueError:
        names = sorted(a)
    vec_a = [a[name] for name in names]
    vec_b = [b[name] for name in names]
    ks = args.ks or list(range(1, min(args.max_k, len(names)) + 1))
    proportions = rank_overlap(vec_a, vec_b, ks)
    with open(_out_dir(args) / "overlap.csv", "w") as handle:
        write_csv(handle, "k,proportion", ks, proportions)
    return 0


def cmd_generate(args) -> int:
    kind = args.part_kind if args.kind == "planted" else args.kind
    param = f"p={args.p}" if kind == "er" else f"m={args.m}"

    def make(seed: int) -> Graph:
        if kind == "er":
            return erdos_renyi(args.n, args.p, seed=seed)
        return preferential_attachment(args.n, args.m, seed=seed)

    planted = None
    try:
        if args.kind == "planted":
            recipe = (f"kind=planted parts={args.parts} part_kind={kind} "
                      f"n={args.n} {param} k={args.k} seed={args.seed}")
            parts = [make(args.seed * 7919 + i) for i in range(args.parts)]
            planted = connect_communities(parts, args.k, seed=args.seed)
            g = planted.graph
        else:
            recipe = f"kind={kind} n={args.n} {param} seed={args.seed}"
            g = make(args.seed)
    except ValueError as exc:  # generate reads no input: its flags are at fault
        raise UsageError(str(exc)) from exc
    out = _out_dir(args)
    if planted is not None:
        with open(out / "planted_labels.csv", "w") as handle:
            write_node_table(g, handle, "node_id,community_id", planted.planted_labels,
                             comment=recipe)
        with open(out / "planted_boundary.csv", "w") as handle:
            write_csv(handle, "node_id", planted.planted_boundary.tolist(), comment=recipe)
    with open(out / "graph.edges", "w") as handle:
        handle.write(f"# {recipe}\n")
        write_edge_list(g, handle)
    unwritten = g.num_nodes - len(np.unique(g.edges))  # an edge list holds no isolated node
    if unwritten:
        print(f"warning: {unwritten} of {g.num_nodes} nodes have no edge and are not "
              "in graph.edges", file=sys.stderr)
    return 0


def cmd_temporal(args) -> int:
    g = _load_graph(args.input)
    events = _read_events(args.events, g)
    labeling, _ = detect_all_communities(g, seed=args.seed, q_threshold=args.q_threshold)
    boundary_nodes = boundary_edges(g, labeling.labels).boundary_nodes
    with _naming(args.events):
        series = bin_events(events, args.window)
    boundary_active = series.actives(boundary_nodes)
    control_active = control_series(series, boundary_nodes, g.num_nodes, seed=args.seed)
    report = {
        "seed": args.seed,
        "window_seconds": args.window,
        "z_threshold": args.z_threshold,
        "num_boundary_nodes": len(boundary_nodes),
        "series": {},
    }
    # a spike error (too few windows) is raised before anything is written
    for label, counts in (
        ("total", series.totals),
        ("boundary_active", boundary_active),
        ("control_active", control_active),
    ):
        with _naming(args.events):
            spikes = detect_spikes(counts, z_threshold=args.z_threshold)
        report["series"][label] = {
            "spike_windows": list(spikes.spike_windows),
            "zscores": [z if math.isfinite(z) else str(z) for z in spikes.zscores],
        }
    out = _out_dir(args)
    with open(out / "temporal.csv", "w") as handle:
        write_csv(handle, "window_index,total,boundary_active,control_active",
                  range(series.num_windows), series.totals.tolist(),
                  boundary_active.tolist(), control_active.tolist(),
                  comment=f"seed={args.seed} window={args.window} "
                          f"q_threshold={args.q_threshold} z_threshold={args.z_threshold}")
    _write_json(out / "spikes.json", report)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(k) for k in text.split(",")]


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_walk_flags(parser):
    """One flag per WalkConfig field but ``seed``, defaulting to the field's default."""
    walk = WalkConfig()
    parser.add_argument("--walknum", type=int, default=walk.walknum,
                        help="walkers per convergence batch (default %(default)s)")
    parser.add_argument("--stepnum", type=int, default=walk.stepnum,
                        help="steps per walk (default: derived from graph size)")
    parser.add_argument("--psrf-low", type=float, default=walk.psrf_low)
    parser.add_argument("--psrf-high", type=float, default=walk.psrf_high)
    parser.add_argument("--max-batches", type=int, default=walk.max_batches)


def build_parser() -> _Parser:
    parser = _Parser(prog="bva", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", "-i", required=True, help="edge-list file")
        p.add_argument("--out", "-o", default=".", help="output directory")

    def seeded(p):  # the commands that run Louvain
        common(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--q-threshold", type=_finite_float, default=DEFAULT_Q_THRESHOLD)

    p = sub.add_parser("pipeline", help="communities, boundary, and walker scores")
    seeded(p)
    _add_walk_flags(p)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; scoring runs on one thread")
    p.add_argument("--format", choices=("csv", "json", "dot"), default="csv")
    p.add_argument("--unconverged-tolerance", type=float, default=0.0,
                   help="max tolerated fraction of unconverged boundary nodes")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("components", help="connected components CSV")
    common(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("communities", help="community labels CSV + JSON summary")
    seeded(p)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("boundary", help="boundary edges/nodes from a labels CSV")
    common(p)
    p.add_argument("--labels", required=True, help="node_id,community_id CSV")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("betweenness", help="shortest-path betweenness CSV")
    common(p)
    p.set_defaults(func=cmd_betweenness)

    p = sub.add_parser("overlap", help="top-k overlap curve between two score CSVs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ks", type=_positive_ints, default=None,
                   help="comma-separated k values")
    p.add_argument("--max-k", type=_positive_int, default=50)
    p.add_argument("--out", "-o", default=".")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("generate", help="synthetic graphs (er | pa | planted)")
    p.add_argument("kind", choices=("er", "pa", "planted"))
    p.add_argument("--n", type=_positive_int, default=100, help="nodes per graph/part")
    p.add_argument("--p", type=float, default=0.06, help="ER edge probability")
    p.add_argument("--m", type=_positive_int, default=2, help="PA edges per arrival")
    p.add_argument("--parts", type=_positive_int, default=3, help="planted: number of parts")
    p.add_argument("--part-kind", choices=("er", "pa"), default="er",
                   help="planted: generator for each part")
    p.add_argument("--k", type=int, default=26, help="planted: cross-linker count")
    p.add_argument("--out", "-o", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("temporal", help="windowed boundary activity vs control")
    seeded(p)
    p.add_argument("--events", required=True, help="epoch_seconds,node_id CSV")
    p.add_argument("--window", type=_positive_int, default=60,
                   help="window size in seconds")
    p.add_argument("--z-threshold", type=_finite_float, default=DEFAULT_Z_THRESHOLD)
    p.set_defaults(func=cmd_temporal)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
