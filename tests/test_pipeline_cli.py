import dataclasses
import errno
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from boundary_vicinity import (
    WalkConfig,
    build_graph,
    connected_components,
    detect_all_communities,
    detect_communities,
    erdos_renyi,
    load_edge_list,
    preferential_attachment,
    run_pipeline,
)
from boundary_vicinity.cli import _read_events, _walk_config, build_parser, main
from boundary_vicinity.graph import subgraph
from boundary_vicinity.pipeline import (
    ComponentReport,
    component_seed,
    write_betweenness_csv,
    write_scores_csv,
    write_scores_dot,
)
from reference import betweenness_bruteforce

BRIDGE = "0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n"


@pytest.fixture()
def bridge_file(tmp_path):
    path = tmp_path / "bridge.edges"
    path.write_text(BRIDGE)
    return path


def read_scores(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line.startswith("node_id"):
            continue
        name, _, normalized = line.split(",")
        out[name] = float(normalized)
    return out


def test_pipeline_bridge_ranks_boundary_first(bridge_file, tmp_path):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--input", str(bridge_file), "--out", str(out),
        "--seed", "3", "--q-threshold", "0.2",
    ])
    assert code == 0
    scores = read_scores(out / "scores.csv")
    ranked = sorted(scores, key=lambda n: -scores[n])
    assert set(ranked[:2]) == {"2", "3"}
    assert scores[ranked[0]] == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["num_boundary_edges"] == 1
    assert all(manifest["converged"].values())


def test_manifest_records_batches_and_psrf_per_origin(tmp_path):
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert main(["generate", "planted", "--n", "100", "--p", "0.06", "--k", "26",
                 "--seed", "0", "--out", str(gen)]) == 0
    code = main(["pipeline", "--input", str(gen / "graph.edges"), "--out", str(out),
                 "--seed", "1", "--walknum", "5"])
    manifest = json.loads((out / "manifest.json").read_text())
    # the default --unconverged-tolerance 0 exits 3 as soon as one origin fails to settle
    assert code == (0 if all(manifest["converged"].values()) else 3)
    walknum, used = manifest["walk"]["walknum"], manifest["walkers_used"]
    low, high = manifest["walk"]["psrf_low"], manifest["walk"]["psrf_high"]
    assert list(manifest["batches"]) == list(manifest["psrf"]) == list(used)
    assert len(used) == manifest["num_boundary_nodes"]
    for node, walkers in used.items():
        assert manifest["batches"][node] * walknum == walkers
        assert (low <= manifest["psrf"][node] <= high) == manifest["converged"][node]
        if not manifest["converged"][node]:
            assert manifest["batches"][node] == manifest["walk"]["max_batches"]
    assert len(set(manifest["batches"].values())) > 1  # origins settle at different batches


def test_manifest_components_record_local_moves(bridge_file, tmp_path):
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(bridge_file), "--out", str(out),
                 "--seed", "3", "--q-threshold", "0.2"]) == 0
    components = json.loads((out / "manifest.json").read_text())["components"]
    assert components
    for report in components:
        # every node is popped at least once from the first level's queue
        assert report["local_moves"] >= report["size"]


def per_component_reference(g, seed, q_threshold):
    """Labels and component reports as detect_all_communities defines them,
    every component copied by subgraph."""
    labels, reports, next_label = [-1] * g.num_nodes, [], 0
    for index, members in enumerate(connected_components(g).components):
        sub = subgraph(g, members)
        mapping = dict(zip(np.unique(members).tolist(), range(sub.num_nodes)))
        detected = detect_communities(sub, seed=component_seed(seed, index)) \
            if sub.num_edges else None
        if detected is None or detected.modularity < q_threshold:
            for v in members:
                labels[v] = next_label
            count, skipped = 1, "no_edges" if detected is None else "below_q_threshold"
        else:
            for old, new in mapping.items():
                labels[old] = next_label + detected.labels[new]
            count, skipped = detected.num_communities, None
        next_label += count
        reports.append(ComponentReport(
            index=index, size=sub.num_nodes, num_edges=sub.num_edges,
            modularity=None if detected is None else detected.modularity,
            num_communities=count, passes=0 if detected is None else detected.passes,
            local_moves=0 if detected is None else detected.local_moves, skipped=skipped,
        ))
    return labels, reports


def many_components(seed: int):
    """311 components with node ids and edge rows shuffled: a PA graph, 100 bridged
    triangle pairs, 100 lone triangles, 60 isolated edges and 50 isolated nodes."""
    rng = np.random.default_rng(seed)
    rows = preferential_attachment(200, 2, seed=seed).edges.tolist()
    n = 200
    bridged = load_edge_list(io.StringIO(BRIDGE)).edges.tolist()
    for _ in range(100):
        rows += [[n + u, n + v] for u, v in bridged]
        n += 6
    for _ in range(100):
        rows += [[n, n + 1], [n, n + 2], [n + 1, n + 2]]
        n += 3
    for _ in range(60):
        rows.append([n, n + 1])
        n += 2
    n += 50
    relabel = rng.permutation(n)
    rows = relabel[np.array(rows)][rng.permutation(len(rows))]
    return build_graph(n, rows)


def test_detect_all_communities_matches_per_component_subgraphs(karate):
    # karate, then a bridged pair of triangles, an isolated edge and an isolated node
    shift = karate.num_nodes
    bridged = [(shift + u, shift + v) for u, v in load_edge_list(io.StringIO(BRIDGE)).edges]
    several = build_graph(shift + 9, [*karate.edges, *bridged, (shift + 6, shift + 7)])
    many = many_components(4)
    assert len(connected_components(many).components) == 311
    for g in (karate, several, many):
        for seed in (0, 1, 2):
            labeling, reports = detect_all_communities(g, seed=seed, q_threshold=0.2)
            labels, expected = per_component_reference(g, seed, 0.2)
            assert list(labeling.labels) == labels
            assert labeling.num_communities == max(labels) + 1
            assert reports == expected
    skipped = {r.skipped for r in reports}
    assert skipped == {None, "below_q_threshold", "no_edges"}


def test_pipeline_scores_csv_embeds_parameters(bridge_file, tmp_path):
    out = tmp_path / "out"
    main(["pipeline", "--input", str(bridge_file), "--out", str(out),
          "--seed", "7", "--q-threshold", "0.2", "--walknum", "60"])
    header = (out / "scores.csv").read_text().splitlines()[0]
    assert header.startswith("#")
    assert "seed=7" in header
    assert "walknum=60" in header
    assert "stepnum=" in header


def test_pipeline_one_node_graph_walks_one_step(tmp_path):
    path = tmp_path / "one.edges"
    path.write_text("a a\n")  # the self-loop is dropped, leaving one node
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(path), "--out", str(out)]) == 0
    header = (out / "scores.csv").read_text().splitlines()[0]
    assert " stepnum=1 " in header
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["graph"]["num_nodes"] == 1
    assert manifest["walk"]["stepnum"] == 1


def test_manifest_counts_dropped_self_loops_and_duplicates(tmp_path):
    path = tmp_path / "dirty.edges"
    path.write_text(BRIDGE + "4 4\n1 0\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(path), "--out", str(out),
                 "--seed", "3", "--q-threshold", "0.2"]) == 0
    graph = json.loads((out / "manifest.json").read_text())["graph"]
    assert graph == {"num_nodes": 6, "num_edges": 7,
                     "self_loops_dropped": 1, "duplicates_dropped": 1}


def test_pipeline_edgeless_graph_warns_with_zero_scores(tmp_path, capsys):
    path = tmp_path / "edgeless.edges"
    # self-loops only: nodes exist, no usable edges
    path.write_text("0 0\n1 1\n2 2\n")
    out = tmp_path / "out"
    code = main(["pipeline", "--input", str(path), "--out", str(out)])
    assert code == 0
    assert "warning" in capsys.readouterr().err
    scores = read_scores(out / "scores.csv")
    assert set(scores.values()) == {0.0}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warning"] is not None


def test_pipeline_below_threshold_component_contributes_no_boundary(tmp_path):
    # K5 has no community structure: detected Q stays under the threshold
    edges = "\n".join(f"{u} {v}" for u in range(5) for v in range(u + 1, 5))
    path = tmp_path / "k5.edges"
    path.write_text(edges + "\n")
    out = tmp_path / "out"
    code = main(["pipeline", "--input", str(path), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["num_boundary_edges"] == 0
    assert manifest["components"][0]["num_communities"] == 1


def test_pipeline_byte_identical_across_runs_and_threads(tmp_path):
    parts_file = tmp_path / "planted.edges"
    gen = tmp_path / "gen"
    assert main(["generate", "planted", "--n", "40", "--p", "0.15", "--k", "6",
                 "--seed", "5", "--out", str(gen)]) == 0
    parts_file.write_text((gen / "graph.edges").read_text())
    payloads = []
    for threads, name in ((1, "a"), (2, "b"), (8, "c"), (1, "a2")):
        out = tmp_path / name
        code = main([
            "pipeline", "--input", str(parts_file), "--out", str(out),
            "--seed", "11", "--threads", str(threads),
        ])
        assert code == 0
        payloads.append((out / "scores.csv").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2] == payloads[3]


def test_pipeline_matches_subcommand_composition(bridge_file, tmp_path):
    pipe_out = tmp_path / "pipe"
    main(["pipeline", "--input", str(bridge_file), "--out", str(pipe_out),
          "--seed", "2", "--q-threshold", "0.2"])
    comm_out = tmp_path / "comm"
    main(["communities", "--input", str(bridge_file), "--out", str(comm_out),
          "--seed", "2", "--q-threshold", "0.2"])
    bnd_out = tmp_path / "bnd"
    main(["boundary", "--input", str(bridge_file),
          "--labels", str(comm_out / "communities.csv"), "--out", str(bnd_out)])
    assert (pipe_out / "communities.csv").read_bytes() == \
        (comm_out / "communities.csv").read_bytes()
    assert (pipe_out / "boundary.csv").read_bytes() == \
        (bnd_out / "boundary.csv").read_bytes()


def test_pipeline_unconverged_exit_code(tmp_path, capsys):
    # a planted graph has many boundary nodes, so some origin misses the narrow
    # window whatever the draws; two origins alone can both land on exactly 1
    assert main(["generate", "planted", "--n", "30", "--p", "0.3", "--k", "12",
                 "--out", str(tmp_path / "gen")]) == 0
    out = tmp_path / "out"
    code = main([
        "pipeline", "--input", str(tmp_path / "gen" / "graph.edges"), "--out", str(out),
        "--seed", "0",
        "--psrf-low", "0.9999", "--psrf-high", "1.0001",
        "--walknum", "6", "--max-batches", "1",
    ])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_pipeline_walks_beyond_memory_exit_1_and_write_nothing(tmp_path, capsys):
    # the walk buffer asks for 10^15 × 50 × (stepnum + 1) int64 entries, more
    # than any address space holds, so the request is refused, not filled
    graph = Path(__file__).parent / "data" / "karate.edges"
    out = tmp_path / "out"
    code = main(["pipeline", "--input", str(graph), "--out", str(out),
                 "--max-batches", "1000000000000000"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lower --walknum, --stepnum or --max-batches" in err
    assert not out.exists()


def test_memory_errors_outside_the_walk_buffer_end_in_one_line(tmp_path, capsys, monkeypatch):
    """A failed allocation in Louvain or in the loader is one error line and exit 1,
    without the walk flags' hint, and nothing is written."""
    graph = Path(__file__).parent / "data" / "karate.edges"
    out = tmp_path / "out"

    def refuse(message):
        def call(*args, **kwargs):
            raise MemoryError(message)
        return call

    numpy_message = ("Unable to allocate 2.06 MiB for an array with shape (269982,) "
                     "and data type float64")
    monkeypatch.setattr("boundary_vicinity.pipeline.detect_communities", refuse(numpy_message))
    assert main(["pipeline", "--input", str(graph), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {numpy_message}\n"
    monkeypatch.setattr("boundary_vicinity.cli.load_edge_list", refuse(""))
    for command in ("pipeline", "components", "betweenness"):
        assert main([command, "--input", str(graph), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


@pytest.mark.parametrize("name, message, shown", [
    ("_sparse_psrf", "Unable to allocate 40.5 MiB for an array with shape (5313797,) "
                     "and data type int64", "Unable to allocate 40.5 MiB"),
    ("_walk_paths", "", "out of memory"),
], ids=["numpy-message", "no-message"])
def test_memory_errors_in_the_walk_rounds_name_the_walk_flags(tmp_path, capsys, monkeypatch,
                                                             name, message, shown):
    """Every array a walk round allocates grows with the walk flags, however deep
    the call that asks for it, so each failure there gets their hint."""
    graph = Path(__file__).parent / "data" / "karate.edges"
    out = tmp_path / "out"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"boundary_vicinity.walker.{name}", refuse)
    assert main(["pipeline", "--input", str(graph), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {shown}") and err.count("\n") == 1
    assert err.endswith("; lower --walknum, --stepnum or --max-batches\n")
    assert not out.exists()


def test_memory_error_building_the_walk_graph_gets_no_walk_hint(tmp_path, capsys,
                                                                monkeypatch):
    """The walk graph's arrays grow with the graph, not with the walk flags."""
    graph = Path(__file__).parent / "data" / "karate.edges"
    out = tmp_path / "out"

    class Unbuildable:
        @property
        def csr(self):
            raise MemoryError("")

    monkeypatch.setattr("boundary_vicinity.walker.community_mask",
                        lambda g, labels: Unbuildable())
    assert main(["pipeline", "--input", str(graph), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


def test_pipeline_dot_export(bridge_file, tmp_path):
    out = tmp_path / "out"
    main(["pipeline", "--input", str(bridge_file), "--out", str(out),
          "--seed", "3", "--q-threshold", "0.2", "--format", "dot"])
    dot = (out / "scores.dot").read_text()
    assert dot.startswith("graph")
    assert '"2" [width=1.0000];' in dot or '"3" [width=1.0000];' in dot
    assert '"2" -- "3";' in dot
    # a quote inside a token is escaped, so the quoted DOT id stays valid
    quoted = load_edge_list(['a"x b\n'])
    buffer = io.StringIO()
    write_scores_dot(quoted, [1.0, 0.5], buffer)
    assert '"a\\"x" [width=1.0000];' in buffer.getvalue()
    assert '"a\\"x" -- "b";' in buffer.getvalue()
    # a trailing backslash is escaped too, so it cannot escape the closing quote
    slashed = load_edge_list(['a\\ b\n'])
    buffer = io.StringIO()
    write_scores_dot(slashed, [1.0, 0.5], buffer)
    assert '"a\\\\" [width=1.0000];' in buffer.getvalue()
    assert '"a\\\\" -- "b";' in buffer.getvalue()


def test_components_command(tmp_path):
    """A byte-order mark at the start of the file is not part of the first token."""
    for body, tokens in [(b"0 1\n2 3\n", 4),
                         (b"\xef\xbb\xbfa b\nb c\nc a\nc d\nd e\ne f\nf d\n", 6)]:
        path = tmp_path / "graph.edges"
        path.write_bytes(body)
        out = tmp_path / "out"
        assert main(["components", "--input", str(path), "--out", str(out)]) == 0
        rows = (out / "components.csv").read_text().splitlines()
        assert rows[0] == "node_id,component_id"
        assert len(rows) == 1 + tokens
        assert rows[1].split(",")[0] == body[:-1].split()[0].decode("utf-8-sig")


def test_communities_json_summary(bridge_file, tmp_path):
    out = tmp_path / "out"
    main(["communities", "--input", str(bridge_file), "--out", str(out),
          "--seed", "1", "--q-threshold", "0.2"])
    summary = json.loads((out / "communities.json").read_text())
    assert summary["num_communities"] == 2
    assert summary["modularity"] == pytest.approx(0.357, abs=1e-3)
    assert summary["passes"] >= 1


def test_communities_json_local_moves_match_manifest(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text(BRIDGE + "6 7\n7 8\n8 6\n8 9\n")  # a second component
    main(["communities", "--input", str(path), "--out", str(tmp_path / "c"), "--seed", "2"])
    main(["pipeline", "--input", str(path), "--out", str(tmp_path / "p"), "--seed", "2"])
    summary = json.loads((tmp_path / "c" / "communities.json").read_text())
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert len(manifest["components"]) == summary["components"] == 2
    assert summary["local_moves"] == sum(r["local_moves"] for r in manifest["components"])
    assert summary["local_moves"] >= 10


def test_betweenness_command_and_oracle_agree(bridge_file, tmp_path):
    out = tmp_path / "out"
    assert main(["betweenness", "--input", str(bridge_file), "--out", str(out)]) == 0
    with open(bridge_file) as handle:
        g = load_edge_list(handle)
    expected = io.StringIO()
    write_betweenness_csv(g, betweenness_bruteforce(g), expected)
    assert (out / "betweenness.csv").read_bytes() == expected.getvalue().encode()


def test_overlap_command(bridge_file, tmp_path):
    out = tmp_path / "bw"
    main(["betweenness", "--input", str(bridge_file), "--out", str(out)])
    curve_out = tmp_path / "curve"
    code = main(["overlap", "--a", str(out / "betweenness.csv"),
                 "--b", str(out / "betweenness.csv"), "--ks", "1,2,6",
                 "--out", str(curve_out)])
    assert code == 0
    rows = (curve_out / "overlap.csv").read_text().splitlines()
    assert rows[0] == "k,proportion"
    assert rows[1:] == ["1,1.0", "2,1.0", "6,1.0"]
    # a k above the node count depends on the input, so it is an input error
    assert main(["overlap", "--a", str(out / "betweenness.csv"),
                 "--b", str(out / "betweenness.csv"), "--ks", "7",
                 "--out", str(curve_out)]) == 2


def test_overlap_different_node_sets_named_with_exit_2(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("0,1\n1,2\n")
    b.write_text("0,1\n9,2\n")
    assert main(["overlap", "--a", str(a), "--b", str(b), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{b} lists node '9', {a} does not" in err
    assert not (tmp_path / "overlap.csv").exists()


@pytest.mark.parametrize("body, line, message", [
    ("node_id,betweenness\n0,1.0\n2,abc\n3,2.0\n", 3, "no numeric score in '2,abc'"),
    ("0,1.0\nnode_id,betweenness\n", 2, "no numeric score in 'node_id,betweenness'"),
    ("# c\nnode_id,x,score\n\n4,0.5,2.0\n5\n", 5, "no numeric score in '5'"),
    ("node_id,b\n0,1.0\n# c\n0,2.0\n", 4, "node '0' is listed twice"),
    ("node_id,b\n0,1.0\n1,nan\n", 3, "no numeric score in '1,nan'"),
], ids=["bad-row-after-header", "header-not-first", "one-field-row", "listed-twice",
        "nan-score"])
def test_bad_score_row_named_with_exit_2(tmp_path, bridge_file, capsys, body, line,
                                         message):
    """Only the first data line may be a header; a later bad row stops the command."""
    main(["betweenness", "--input", str(bridge_file), "--out", str(tmp_path / "bw")])
    bad = tmp_path / "bad.csv"
    bad.write_text(body)
    for a, b in ((tmp_path / "bw" / "betweenness.csv", bad), (bad, bad)):
        code = main(["overlap", "--a", str(a), "--b", str(b), "--max-k", "6",
                     "--out", str(tmp_path / "curve")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: line {line}: {message}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "curve").exists()


def test_generate_er_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["generate", "er", "--n", "30", "--p", "0.2",
                     "--seed", "4", "--out", str(out)]) == 0
    assert (out_a / "graph.edges").read_bytes() == (out_b / "graph.edges").read_bytes()


@pytest.mark.parametrize("kind", [["er"], ["pa"], ["planted", "--part-kind", "pa"]])
def test_generate_takes_its_seed_mod_2_64(tmp_path, kind):
    written = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / seed
        assert main(["generate", *kind, "--n", "30", "--seed", seed, "--out", str(out)]) == 0
        written.append(sorted((path.name, path.read_bytes()) for path in out.iterdir()))
    assert written[0] == written[1]


def test_generate_warns_of_the_nodes_an_edge_list_cannot_hold(tmp_path, capsys):
    """A node without an edge is not written; the warning counts them, the exit stays 0."""
    out = tmp_path / "out"
    assert main(["generate", "er", "--n", "30", "--p", "0.02", "--seed", "1",
                 "--out", str(out)]) == 0
    kept = len(load_edge_list((out / "graph.edges").read_text().splitlines()).names)
    assert kept < 30
    assert capsys.readouterr().err == (f"warning: {30 - kept} of 30 nodes have no edge and "
                                       "are not in graph.edges\n")
    assert main(["generate", "er", "--n", "30", "--p", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: 30 of 30 nodes have no edge and are not "
                                       "in graph.edges\n")
    assert main(["generate", "er", "--n", "30", "--p", "0.2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_generate_planted_sidecars(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "planted", "--n", "30", "--p", "0.2", "--k", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    labels = [r for r in (out / "planted_labels.csv").read_text().splitlines()
              if not r.startswith("#")]
    assert labels[0] == "node_id,community_id"
    assert len(labels) == 91
    boundary = [r for r in (out / "planted_boundary.csv").read_text().splitlines()
                if not r.startswith("#")]
    assert boundary[0] == "node_id"
    assert 5 <= len(boundary) <= 9  # 4 linkers plus up to 4 partners
    assert (out / "graph.edges").read_text().startswith("# kind=planted")


def test_temporal_command(tmp_path, bridge_file):
    events = tmp_path / "events.csv"
    lines = ["epoch_seconds,node_id"]
    for w in range(8):
        lines.append(f"{w * 60 + 10},0")
        lines.append(f"{w * 60 + 30},4")
    for r in range(12):
        lines.append(f"{5 * 60 + r + 10},2")
        lines.append(f"{5 * 60 + r + 25},3")
    events.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--window", "60", "--seed", "0", "--q-threshold", "0.2",
                 "--out", str(out)])
    assert code == 0
    rows = [r for r in (out / "temporal.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert rows[0] == "window_index,total,boundary_active,control_active"
    report = json.loads((out / "spikes.json").read_text())
    assert 5 in report["series"]["total"]["spike_windows"]
    assert 5 in report["series"]["boundary_active"]["spike_windows"]


def test_temporal_takes_a_negative_seed(tmp_path, bridge_file):
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{t * 7},{t % 6}\n" for t in range(200)))

    def control_column(seed):
        out = tmp_path / seed
        assert main(["temporal", "--input", str(bridge_file), "--events", str(events),
                     "--seed", seed, "--q-threshold", "0.2", "--out", str(out)]) == 0
        rows = (out / "temporal.csv").read_text().splitlines()[2:]
        return [row.rpartition(",")[2] for row in rows]

    assert control_column("-1") == control_column(str(2**64 - 1))


@pytest.mark.parametrize("command", [
    ["pipeline", "--input", "{karate}", "--format", "json"],
    ["communities", "--input", "{karate}"],
    ["temporal", "--input", "{bridge}", "--events", "{events}", "--q-threshold", "0.2"],
], ids=["pipeline", "communities", "temporal"])
def test_a_seed_and_its_value_mod_2_64_write_identical_files(tmp_path, bridge_file, command):
    """Every command records the reduced seed: ``--seed -1`` writes what 2^64 - 1 writes."""
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{t * 7},{t % 6}\n" for t in range(200)))
    paths = {"karate": Path(__file__).parent / "data" / "karate.edges",
             "bridge": bridge_file, "events": events}
    written = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / seed
        argv = [arg.format(**paths) for arg in command]
        assert main([*argv, "--seed", seed, "--out", str(out)]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        if "manifest.json" in files:
            manifest = json.loads(files["manifest.json"])
            del manifest["elapsed_seconds"]
            files["manifest.json"] = manifest
        written.append(files)
    assert written[0] == written[1]


def test_usage_error_exit_code(tmp_path, capsys):
    assert main([]) == 1
    assert main(["pipeline"]) == 1  # missing --input
    assert main(["no-such-command"]) == 1
    # flag values are checked before any input is read: none of these files exist
    pipeline = ["pipeline", "--input", "unused.edges"]
    for flags in (["--walknum", "2"], ["--stepnum", "0"], ["--max-batches", "0"],
                  ["--psrf-low", "1.2"], ["--psrf-high", "0.9"],
                  ["--unconverged-tolerance", "-0.5"], ["--unconverged-tolerance", "1.5"],
                  ["--unconverged-tolerance", "nan"]):
        assert main(pipeline + flags) == 1, flags
    scores = ["overlap", "--a", "unused.csv", "--b", "unused.csv"]
    for flags in (["--ks", "0"], ["--ks", "a"], ["--ks", "1,,2"], ["--ks", "3,-1"],
                  ["--max-k", "0"], ["--max-k", "x"]):
        assert main(scores + flags) == 1, flags
    events = ["temporal", "--input", "unused.edges", "--events", "unused.csv"]
    for window in ("0", "-60", "1.5"):
        assert main(events + ["--window", window]) == 1, window
    for command in (pipeline, ["communities", "--input", "unused.edges"], events):
        for value in ("nan", "inf", "-inf", "x"):
            assert main(command + ["--q-threshold", value]) == 1, (command[0], value)
    for value in ("nan", "inf", "-inf", "x"):
        assert main(events + ["--z-threshold", value]) == 1, value
    assert main(["betweenness", "--input", "unused.edges", "--oracle"]) == 1
    # only pipeline, communities, temporal and generate take a seed
    # and the leftover flag is reported with the subcommand's own usage
    for command in (["components"], ["betweenness"], ["boundary", "--labels", "unused.csv"]):
        capsys.readouterr()
        assert main(command + ["--input", "unused.edges", "--seed", "1"]) == 1, command[0]
        assert capsys.readouterr().err.startswith(f"usage: bva {command[0]} "), command[0]
    # a generator flag error exits 1 before anything is written
    out = tmp_path / "generated"
    for flags in (["er", "--n", "0"], ["er", "--n", "x"], ["pa", "--m", "0"],
                  ["planted", "--parts", "0"], ["planted", "--parts", "1"],
                  ["planted", "--k", "-1"], ["planted", "--parts", "4", "--k", "2"],
                  ["pa", "--n", "2", "--m", "3"], ["er", "--p", "1.5"], ["er", "--p", "-0.1"],
                  ["planted", "--n", "100", "--k", "1000"],
                  ["planted", "--n", "5", "--k", "40"],
                  ["planted", "--part-kind", "er", "--n", "1", "--parts", "2", "--k", "2"]):
        assert main(["generate", *flags, "--out", str(out)]) == 1, flags
    assert not out.exists()


def test_missing_input_exit_code(tmp_path):
    assert main(["pipeline", "--input", str(tmp_path / "nope.edges"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("unreadable", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["components --input", "boundary --labels", "overlap --a",
                                  "overlap --b", "temporal --events"])
def test_unreadable_input_named_once_with_exit_2_and_nothing_written(
        tmp_path, bridge_file, capsys, flag, unreadable):
    good = tmp_path / "good.csv"
    good.write_text("0,1\n1,2\n")
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    argv = {
        "components --input": ["components", "--input", path],
        "boundary --labels": ["boundary", "--input", bridge_file, "--labels", path],
        "overlap --a": ["overlap", "--a", path, "--b", good],
        "overlap --b": ["overlap", "--a", good, "--b", path],
        "temporal --events": ["temporal", "--input", bridge_file, "--events", path],
    }[flag]
    out = tmp_path / "out"
    code = main([*map(str, argv), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot read {path}: ")
    # one line, and the path prefixes it once: the OSError's own text only quotes it
    assert err.count("\n") == 1 and err.count(f"{path}: ") == 1
    assert not out.exists()


@pytest.mark.parametrize("unreadable, code", [("missing", errno.ENOENT),
                                              ("directory", errno.EISDIR)])
def test_unreadable_input_error_gives_the_reason_without_the_path_again(
        tmp_path, capsys, unreadable, code):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    assert main(["components", "--input", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {os.strerror(code)}\n"


@pytest.mark.parametrize("below, code", [(False, errno.EEXIST), (True, errno.ENOTDIR)])
def test_out_that_cannot_be_made_named_with_exit_2_and_nothing_written(
        tmp_path, bridge_file, capsys, below, code):
    """An --out that is a regular file, or lies under one, is named as unwritable."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if below else afile
    assert main(["pipeline", "--input", str(bridge_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(code)}\n"
    assert sorted(tmp_path.iterdir()) == sorted([afile, bridge_file])
    assert afile.read_text() == "kept\n"


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 2\n")
    assert main(["components", "--input", str(bad), "--out", str(tmp_path)]) == 2


def test_node_token_starting_with_hash_exits_2_and_writes_nothing(tmp_path, capsys):
    # "#d e" reads as a comment, so a kept "#d" could not be labelled in communities.csv
    edges = tmp_path / "hash.edges"
    edges.write_text("a b\nb c\nc a\nc #d\n#d e\ne f\nf #d\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--input", str(edges), "--out", str(out)]) == 2
    assert f"{edges}: line 4: node token '#d' begins with '#'" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_event_node_exit_code(tmp_path, bridge_file):
    events = tmp_path / "events.csv"
    events.write_text("10,99\n")
    assert main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--out", str(tmp_path)]) == 2


def test_read_events_line_rules(tmp_path, bridge_file):
    """Blank, comment and header lines are skipped; padding around a line is not read."""
    with open(bridge_file) as handle:
        g = load_edge_list(handle)
    events = tmp_path / "events.csv"
    events.write_text("# replay\nepoch_seconds,node_id\n\n  120,3  \n\t60 ,0\n"
                      "   \n#7,1\n-5,5\n120,3\n")
    got = _read_events(str(events), g)
    assert got.dtype == np.int64
    assert got.shape == (4, 2)
    assert got.tolist() == [[120, 3], [60, 0], [-5, 5], [120, 3]]


@pytest.mark.parametrize("body, line, message", [
    ("epoch_seconds,node_id\n\n10,0\n# note\n20, 1\n", 5, "unknown node ' 1'"),
    ("10,0\n\n16x,1\n", 3, "timestamp '16x' is not a 64-bit integer"),
    ("# c\n10,0\n99999999999999999999,1\n", 3, "timestamp '99999999999999999999'"),
    ("10,0\n9223372036854775808,1\n", 2, "is not a 64-bit integer"),
    ("\n\n#\n,2\n", 4, "timestamp ''"),
    ("10,0\n# c\n16x,1\n\n20,2\n", 3, "timestamp '16x' is not a 64-bit integer"),
    ("epoch_seconds,node_id\n10,0\n10,7\n20,2\n", 3, "unknown node '7'"),
])
def test_bad_event_line_named_with_exit_2(tmp_path, bridge_file, capsys, body, line,
                                          message):
    events = tmp_path / "events.csv"
    events.write_text(body)
    code = main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{events}: line {line}: " in err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["boundary --labels", "overlap --a", "overlap --b",
                                  "temporal --events"])
def test_input_not_utf8_named_with_exit_2(tmp_path, bridge_file, capsys, flag):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    bad.write_bytes(b"0,0\n1,\xff\n")
    good.write_text("0,1\n1,2\n")
    argv = {
        "boundary --labels": ["boundary", "--input", bridge_file, "--labels", bad],
        "overlap --a": ["overlap", "--a", bad, "--b", good],
        "overlap --b": ["overlap", "--a", good, "--b", bad],
        "temporal --events": ["temporal", "--input", bridge_file, "--events", bad],
    }[flag]
    code = main([*map(str, argv), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}: ")
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("body, line, message", [
    ("node_id,community_id\n0,0\n1,x\n2,0\n", 3,
     "community 'x' is not a nonnegative integer"),
    ("0,0\n1,-1\n", 2, "community '-1' is not a nonnegative integer"),
    ("# c\n0,0\n\n1,\n", 4, "community '' is not a nonnegative integer"),
    ("0,0\n1,0\n\n0,1\n\n2,0\n", 4, "node '0' is listed twice"),
    ("# c\n0,0\n9,0\n", 3, "unknown node '9'"),
], ids=["not-an-integer", "negative", "empty", "listed-twice", "unknown-node"])
def test_bad_label_line_named_with_exit_2(tmp_path, bridge_file, capsys, body, line,
                                          message):
    labels = tmp_path / "labels.csv"
    labels.write_text(body)
    code = main(["boundary", "--input", str(bridge_file), "--labels", str(labels),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{labels}: line {line}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, body, problem", [
    ("boundary", "--labels", "node_id,community_id\n0,0\n\n9,0\n", "line 4: unknown node '9'"),
    ("boundary", "--labels", "# c\n0,0\n1,0\n0,1\n", "line 4: node '0' is listed twice"),
    ("boundary", "--labels", "0,0\n1,x\n", "line 2: community 'x' is not a nonnegative integer"),
    ("overlap", "--a", "node,score\n0,1.5\n\n1,high\n", "line 4: no numeric score in '1,high'"),
    ("overlap", "--a", "0,1\n# c\n0,2\n", "line 3: node '0' is listed twice"),
    ("temporal", "--events", "epoch_seconds,node_id\n10,0\n10,7\n", "line 3: unknown node '7'"),
    ("temporal", "--events", "10,0\n\n16x,1\n", "line 3: timestamp '16x' is not a 64-bit integer"),
], ids=["labels-unknown-node", "labels-listed-twice", "labels-bad-community",
        "scores-no-number", "scores-listed-twice", "events-unknown-node", "events-bad-stamp"])
def test_bad_row_read_through_a_pipe_is_named_as_in_a_file(tmp_path, bridge_file, capsys,
                                                           command, flag, body, problem):
    """A pipe can be read only once, so the error's line number comes from that one read."""
    other = tmp_path / "other.csv"
    other.write_text("0,1\n1,2\n")
    argv = {"boundary": ["boundary", "--input", str(bridge_file)],
            "overlap": ["overlap", "--b", str(other)],
            "temporal": ["temporal", "--input", str(bridge_file)]}[command]

    def run(path):
        code = main([*argv, flag, path, "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    regular = tmp_path / "rows.csv"
    regular.write_text(body)
    assert run(str(regular)) == (2, f"error: {regular}: {problem}\n")
    read, write = os.pipe()
    os.write(write, body.encode())  # a few bytes: the pipe's buffer holds them
    os.close(write)
    try:
        assert run(f"/dev/fd/{read}") == (2, f"error: /dev/fd/{read}: {problem}\n")
    finally:
        os.close(read)


@pytest.mark.parametrize("command, flag, header, problem", [
    ("overlap", "--a", "node_id,raw_score,normalized_score", "no score rows found"),
    ("temporal", "--events", "epoch_seconds,node_id", "no events found"),
])
def test_input_of_a_header_alone_exits_2_and_writes_nothing(tmp_path, bridge_file, capsys,
                                                           command, flag, header, problem):
    other = tmp_path / "other.csv"
    other.write_text("0,1\n1,2\n")
    argv = {"overlap": ["overlap", "--b", str(other)],
            "temporal": ["temporal", "--input", str(bridge_file)]}[command]
    rows = tmp_path / "rows.csv"
    rows.write_text(header + "\n")
    out = tmp_path / "out"
    code = main([*argv, flag, str(rows), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {rows}: {problem}\n")
    assert not out.exists()


def test_labels_missing_a_node_exit_2(tmp_path, bridge_file, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("node_id,community_id\n0,0\n1,0\n2,0\n3,1\n4,1\n")
    assert main(["boundary", "--input", str(bridge_file), "--labels", str(labels),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{labels}: does not label every node of the graph" in capsys.readouterr().err
    labels.write_text("node_id,community_id\n0,0\n1,0\n2,0\n3,1\n4,1\n5,1\n")
    assert main(["boundary", "--input", str(bridge_file), "--labels", str(labels),
                 "--out", str(tmp_path / "out")]) == 0


def test_temporal_boundary_outnumbering_the_rest_exits_2(tmp_path, capsys):
    """On karate the boundary set is larger than the rest: no equal-size control set."""
    graph = Path(__file__).parent / "data" / "karate.edges"
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{60 * w + v},{v}\n" for w in range(10) for v in range(34)))
    code = main(["temporal", "--input", str(graph), "--events", str(events),
                 "--seed", "1", "--window", "60", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: the boundary set (" in err
    assert "so no equal-size control set exists" in err
    assert not (tmp_path / "out" / "temporal.csv").exists()


def test_temporal_too_few_windows_exits_2_and_writes_nothing(tmp_path, bridge_file, capsys):
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{t * 2},{t % 6}\n" for t in range(200)))  # 400 s
    out = tmp_path / "out"
    code = main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--window", "100000", "--q-threshold", "0.2", "--out", str(out)])
    assert code == 2
    assert "need at least 5 windows, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_temporal_too_few_windows_names_the_events_file(tmp_path, capsys):
    graph = tmp_path / "graph.edges"
    graph.write_text("a b\nb c\nc a\nc d\nd e\ne f\nf d\n")
    events = tmp_path / "events.csv"
    events.write_text("1,a\n2,b\n")
    out = tmp_path / "out"
    code = main(["temporal", "--input", str(graph), "--events", str(events),
                 "--out", str(out)])
    assert (code, capsys.readouterr().err) == (
        2, f"error: {events}: need at least 5 windows, got 1\n")
    assert not out.exists()


@pytest.mark.parametrize("first,last,window,windows", [
    (0, 10**18, 60, 16666666666666667),  # epoch milliseconds read as seconds
    (-2**63, 2**63 - 1, 1, 2**64),
], ids=["milliseconds-as-seconds", "full-int64-span"])
def test_temporal_span_numpy_cannot_bin_exits_2_and_writes_nothing(
        tmp_path, bridge_file, capsys, first, last, window, windows):
    """numpy refuses these windows' counts outright: 118 PiB, then more than intp holds."""
    events = tmp_path / "events.csv"
    events.write_text(f"{first},0\n{last},1\n")
    out = tmp_path / "out"
    code = main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--window", str(window), "--q-threshold", "0.2", "--out", str(out)])
    assert code == 2
    assert (f"error: {events}: the events span {last - first} s, {windows} windows of "
            f"{window} s") in capsys.readouterr().err
    assert not (out / "temporal.csv").exists() and not (out / "spikes.json").exists()


def test_run_pipeline_api_matches_cli(bridge_file, tmp_path):
    with open(bridge_file) as handle:
        g = load_edge_list(handle)
    result = run_pipeline(g, WalkConfig(seed=3), q_threshold=0.2)
    order = np.argsort(-result.scores.raw)
    assert set(order[:2].tolist()) == {2, 3}
    labeling, reports = detect_all_communities(g, seed=3, q_threshold=0.2)
    assert np.array_equal(labeling.labels, result.labeling.labels)
    assert len(reports) == 1


def test_pipeline_walk_flags_default_to_walk_config():
    args = build_parser().parse_args(["pipeline", "--input", "x"])
    assert {f.name for f in dataclasses.fields(WalkConfig)} <= set(vars(args))
    assert _walk_config(args) == WalkConfig()


def test_run_pipeline_seeds_louvain_with_the_walk_seed():
    g = erdos_renyi(60, 0.1, seed=1)
    found = set()
    for seed in range(4):
        labels = run_pipeline(g, WalkConfig(seed=seed), q_threshold=0.0).labeling.labels
        expected = detect_all_communities(g, seed=seed, q_threshold=0.0)[0].labels
        assert np.array_equal(labels, expected)
        found.add(tuple(labels.tolist()))
    assert len(found) > 1  # the seed matters on this graph


def test_scores_csv_header_names_the_walk_seed(bridge_file):
    with open(bridge_file) as handle:
        g = load_edge_list(handle)
    headers = []
    for seed in (1, 2):
        stream = io.StringIO()
        write_scores_csv(run_pipeline(g, WalkConfig(seed=seed), q_threshold=0.2), stream)
        headers.append(stream.getvalue().splitlines()[0])
        assert headers[-1].startswith(f"# seed={seed} ")
    assert headers[0] != headers[1]
