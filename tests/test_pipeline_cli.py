import json
from pathlib import Path

import numpy as np
import pytest

from boundary_vicinity import detect_all_communities, load_edge_list, run_pipeline
from boundary_vicinity.cli import main

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


def test_pipeline_unconverged_exit_code(tmp_path, bridge_file, capsys):
    out = tmp_path / "out"
    code = main([
        "pipeline", "--input", str(bridge_file), "--out", str(out),
        "--seed", "0", "--q-threshold", "0.2",
        "--psrf-low", "0.9999", "--psrf-high", "1.0001",
        "--walknum", "6", "--max-batches", "1",
    ])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_pipeline_dot_export(bridge_file, tmp_path):
    out = tmp_path / "out"
    main(["pipeline", "--input", str(bridge_file), "--out", str(out),
          "--seed", "3", "--q-threshold", "0.2", "--format", "dot"])
    dot = (out / "scores.dot").read_text()
    assert dot.startswith("graph")
    assert '"2" [width=1.0000];' in dot or '"3" [width=1.0000];' in dot
    assert '"2" -- "3";' in dot


def test_components_command(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("0 1\n2 3\n")
    out = tmp_path / "out"
    assert main(["components", "--input", str(path), "--out", str(out)]) == 0
    rows = (out / "components.csv").read_text().splitlines()
    assert rows[0] == "node_id,component_id"
    assert len(rows) == 5


def test_communities_json_summary(bridge_file, tmp_path):
    out = tmp_path / "out"
    main(["communities", "--input", str(bridge_file), "--out", str(out),
          "--seed", "1", "--q-threshold", "0.2"])
    summary = json.loads((out / "communities.json").read_text())
    assert summary["num_communities"] == 2
    assert summary["modularity"] == pytest.approx(0.357, abs=1e-3)
    assert summary["passes"] >= 1


def test_betweenness_command_and_oracle_agree(bridge_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["betweenness", "--input", str(bridge_file), "--out", str(out_a)]) == 0
    assert main(["betweenness", "--input", str(bridge_file), "--oracle",
                 "--out", str(out_b)]) == 0
    assert (out_a / "betweenness.csv").read_bytes() == \
        (out_b / "betweenness.csv").read_bytes()


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


def test_generate_er_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["generate", "er", "--n", "30", "--p", "0.2",
                     "--seed", "4", "--out", str(out)]) == 0
    assert (out_a / "graph.edges").read_bytes() == (out_b / "graph.edges").read_bytes()


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


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["pipeline"]) == 1  # missing --input
    assert main(["no-such-command"]) == 1
    assert main(["pipeline", "--input", "unused.edges", "--walknum", "2"]) == 1


def test_missing_input_exit_code(tmp_path):
    assert main(["pipeline", "--input", str(tmp_path / "nope.edges"),
                 "--out", str(tmp_path)]) == 2


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 2\n")
    assert main(["components", "--input", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_event_node_exit_code(tmp_path, bridge_file):
    events = tmp_path / "events.csv"
    events.write_text("10,99\n")
    assert main(["temporal", "--input", str(bridge_file), "--events", str(events),
                 "--out", str(tmp_path)]) == 2


def test_run_pipeline_api_matches_cli(bridge_file, tmp_path):
    with open(bridge_file) as handle:
        g = load_edge_list(handle)
    result = run_pipeline(g, seed=3, q_threshold=0.2)
    order = np.argsort(-result.scores.raw)
    assert set(order[:2].tolist()) == {2, 3}
    labeling, reports = detect_all_communities(g, seed=3, q_threshold=0.2)
    assert labeling.labels == result.labeling.labels
    assert len(reports) == 1
