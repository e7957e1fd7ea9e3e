"""Every CSV and JSON output is byte for byte what a per-row writer loop gives.

The references are the writers' per-row loops written out: the node token,
then each value (a float through ``float(x)!r``, an int as is), one line per
node in dense id order, after the optional comment line and the header. The
boundary files and the manifest's per-origin maps are rebuilt from the graph
and the labels, one edge or origin at a time; ``overlap.csv``,
``temporal.csv``, ``planted_boundary.csv`` and ``scores.json`` one k, window,
node or score row at a time.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from boundary_vicinity import (
    WalkConfig,
    betweenness_brandes,
    bin_events,
    boundary_edges,
    community_mask,
    connect_communities,
    connected_components,
    control_series,
    detect_all_communities,
    erdos_renyi,
    load_edge_list,
    preferential_attachment,
    rank_overlap,
    run_pipeline,
    write_edge_list,
)
from boundary_vicinity.cli import _write_json, main
from boundary_vicinity.pipeline import (
    _run_params,
    build_manifest,
    build_scores_json,
    write_betweenness_csv,
    write_boundary_csv,
    write_boundary_nodes_csv,
    write_communities_csv,
    write_components_csv,
    write_scores_csv,
)
from reference import loop_converged_walks

# floats whose repr has an exponent, a sign, no fraction, or no finite value
SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.0, 7.0,
           2.0**53, 1e16, 1e22, 0.1, 1 / 3, 1e-7, -123456.789, 2.5e-308]


def special_column(n: int, shift: int) -> np.ndarray:
    return np.array([SPECIAL[(v + shift) % len(SPECIAL)] for v in range(n)])


def written(writer, *args, **kwargs) -> str:
    buffer = io.StringIO()
    writer(*args, buffer, **kwargs)
    return buffer.getvalue()


def scores_reference(result) -> str:
    g = result.graph
    params = " ".join(f"{k}={v}" for k, v in _run_params(result).items())
    out = f"# {params}\nnode_id,raw_score,normalized_score\n"
    for v in range(g.num_nodes):
        out += (f"{g.names[v]},{float(result.scores.raw[v])!r},"
                f"{float(result.scores.normalized[v])!r}\n")
    return out


def communities_reference(g, labels, seed, q_threshold) -> str:
    out = f"# seed={seed} q_threshold={q_threshold}\nnode_id,community_id\n"
    for v in range(g.num_nodes):
        out += f"{g.names[v]},{labels[v]}\n"
    return out


def components_reference(g) -> str:
    parts = connected_components(g)
    out = "node_id,component_id\n"
    for v in range(g.num_nodes):
        out += f"{g.names[v]},{parts.component_id[v]}\n"
    return out


def betweenness_reference(g, values) -> str:
    out = "node_id,betweenness\n"
    for v in range(g.num_nodes):
        out += f"{g.names[v]},{float(values[v])!r}\n"
    return out


def boundary_reference(g, labels) -> str:
    out = "i,j,community_i,community_j\n"
    for u, v in g.edges.tolist():
        if labels[u] != labels[v]:
            out += f"{g.names[u]},{g.names[v]},{labels[u]},{labels[v]}\n"
    return out


def boundary_nodes_reference(g, labels) -> str:
    out = "node_id,community_id\n"
    crossing = {w for u, v in g.edges.tolist() if labels[u] != labels[v] for w in (u, v)}
    for v in sorted(crossing):
        out += f"{g.names[v]},{labels[v]}\n"
    return out


@pytest.fixture(params=["string-tokens", "generated"])
def graph(request):
    if request.param == "string-tokens":
        g = load_edge_list(io.StringIO(
            "alice bob\nbob carol\ncarol alice\ncarol dave\ndave erin\nerin frank\n"
            "frank dave\nx-1,y.2\n10 alice\n"
        ))
    else:
        g = erdos_renyi(40, 0.06, seed=2)  # several components and isolated nodes
        assert g.names == tuple(map(str, range(40)))
    return g


def test_scores_csv_matches_per_row_loop(graph):
    result = run_pipeline(graph, WalkConfig(seed=1), q_threshold=0.2)
    n = graph.num_nodes
    special = dataclasses.replace(result, scores=dataclasses.replace(
        result.scores, raw=special_column(n, 0), normalized=special_column(n, 5)))
    for res in (result, special):
        assert written(write_scores_csv, res) == scores_reference(res)


def test_scores_json_matches_per_row_dict(graph, tmp_path):
    result = run_pipeline(graph, WalkConfig(seed=1), q_threshold=0.2)
    n = graph.num_nodes
    special = dataclasses.replace(result, scores=dataclasses.replace(
        result.scores, raw=special_column(n, 2), normalized=special_column(n, 9)))
    for res in (result, special):
        rows = []
        for v in range(n):
            rows.append({"node_id": graph.names[v], "raw_score": float(res.scores.raw[v]),
                         "normalized_score": float(res.scores.normalized[v])})
        expected = json.dumps({**_run_params(res), "scores": rows}, indent=2) + "\n"
        _write_json(tmp_path / "scores.json", build_scores_json(res))
        assert (tmp_path / "scores.json").read_text() == expected


def test_communities_csv_matches_per_row_loop(graph):
    labels = run_pipeline(graph, WalkConfig(seed=1), q_threshold=0.2).labeling.labels
    assert written(write_communities_csv, graph, labels, seed=4, q_threshold=0.25) == \
        communities_reference(graph, labels, seed=4, q_threshold=0.25)


def test_components_csv_matches_per_row_loop(graph):
    assert written(write_components_csv, graph) == components_reference(graph)


def test_betweenness_csv_matches_per_row_loop(graph):
    column = special_column(graph.num_nodes, 3)
    for values in (betweenness_brandes(graph), column, column.tolist()):
        assert written(write_betweenness_csv, graph, values) == \
            betweenness_reference(graph, values)


@pytest.mark.parametrize("kind, flags, make", [
    ("er", ["--p", "0.2"], lambda seed: erdos_renyi(30, 0.2, seed=seed)),
    ("pa", ["--m", "2"], lambda seed: preferential_attachment(30, 2, seed=seed)),
])
def test_planted_labels_csv_matches_per_row_loop(tmp_path, kind, flags, make):
    assert main(["generate", "planted", "--part-kind", kind, "--n", "30", *flags,
                 "--k", "4", "--seed", "3", "--out", str(tmp_path)]) == 0
    planted = connect_communities([make(3 * 7919 + i) for i in range(3)], 4, seed=3)
    param = flags[0][2:] + "=" + flags[1]
    expected = (f"# kind=planted parts=3 part_kind={kind} n=30 {param} k=4 seed=3\n"
                "node_id,community_id\n")
    for v in range(planted.graph.num_nodes):
        expected += f"{v},{planted.planted_labels[v]}\n"
    assert (tmp_path / "planted_labels.csv").read_bytes() == expected.encode()
    expected = expected.partition("\n")[0] + "\nnode_id\n"
    for v in planted.planted_boundary:
        expected += f"{v}\n"
    assert (tmp_path / "planted_boundary.csv").read_bytes() == expected.encode()


def test_overlap_csv_matches_per_row_loop(tmp_path):
    a = [((7 * v) % 11) / 3 for v in range(30)]
    b = [SPECIAL[1 + v % 10] * (v + 1) for v in range(30)]  # no NaN: not a score
    for name, values in (("a", a), ("b", b)):
        (tmp_path / f"{name}.csv").write_text(
            "node_id,score\n" + "".join(f"{v},{x!r}\n" for v, x in enumerate(values)))
    for flags, ks in ((["--max-k", "12"], range(1, 13)), (["--ks", "3,1,30,7"], [3, 1, 30, 7])):
        assert main(["overlap", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     *flags, "--out", str(tmp_path)]) == 0
        curve = rank_overlap(a, b, list(ks))
        expected = "k,proportion\n"
        for k, proportion in zip(curve.ks, curve.proportions):
            expected += f"{k},{proportion!r}\n"
        assert (tmp_path / "overlap.csv").read_text() == expected


def test_temporal_csv_matches_per_row_loop(tmp_path):
    parts = [preferential_attachment(30, 2, seed=i) for i in range(3)]
    with open(tmp_path / "graph.edges", "w") as handle:
        write_edge_list(connect_communities(parts, 4, seed=1).graph, handle)
    with open(tmp_path / "graph.edges") as handle:
        g = load_edge_list(handle)  # dense ids in first-seen order, as the command reads it
    events = [(1000 + (i * 37) % 600, (i * 13) % g.num_nodes) for i in range(900)]
    (tmp_path / "events.csv").write_text("".join(f"{t},{g.names[v]}\n" for t, v in events))
    assert main(["temporal", "--input", str(tmp_path / "graph.edges"), "--events",
                 str(tmp_path / "events.csv"), "--seed", "2", "--window", "45",
                 "--out", str(tmp_path / "out")]) == 0
    labels = detect_all_communities(g, seed=2)[0].labels
    boundary = boundary_edges(g, labels).boundary_nodes
    series = bin_events(events, 45)
    totals = series.totals
    active = series.actives(boundary)
    control = control_series(series, boundary, g.num_nodes, seed=2)
    expected = ("# seed=2 window=45 q_threshold=0.3 z_threshold=3.0\n"
                "window_index,total,boundary_active,control_active\n")
    for w in range(len(totals)):
        expected += f"{w},{totals[w]},{active[w]},{control[w]}\n"
    assert (tmp_path / "out" / "temporal.csv").read_text() == expected


def test_boundary_csvs_match_per_row_loops(graph):
    n = graph.num_nodes
    detected = run_pipeline(graph, WalkConfig(seed=1), q_threshold=0.2).labeling.labels
    for labels in (detected.tolist(),
                   [(7 * v) % 12 for v in range(n)]):  # many crossings, two-digit labels
        array = np.array(labels)
        bset = boundary_edges(graph, array)
        expected = boundary_reference(graph, labels)
        assert expected.count("\n") > 1  # at least one crossing edge
        assert written(write_boundary_csv, graph, array, bset) == expected
        assert written(write_boundary_nodes_csv, graph, array, bset) == \
            boundary_nodes_reference(graph, labels)


def test_manifest_per_origin_maps_match_dict_reference(graph):
    """The four maps as the JSON of dicts built one origin at a time, keyed by dense id."""
    cfg = WalkConfig(walknum=6, stepnum=3, seed=1, max_batches=3, psrf_low=0.97,
                     psrf_high=1.03)
    result = run_pipeline(graph, cfg, q_threshold=0.2)
    mask = community_mask(graph, result.labeling.labels)
    keys = ("walkers_used", "converged", "batches", "psrf")
    expected = {key: {} for key in keys}
    for v in sorted({w for e in result.bset.boundary_edges.tolist() for w in e}):
        visits, _, converged, value, batches = loop_converged_walks(mask, v, cfg)
        expected["walkers_used"][str(v)] = len(visits)
        expected["converged"][str(v)] = converged
        expected["batches"][str(v)] = batches
        expected["psrf"][str(v)] = value
    assert {True, False} <= set(expected["converged"].values())
    manifest = build_manifest(result)
    assert json.dumps({key: manifest[key] for key in keys}, indent=2) == \
        json.dumps(expected, indent=2)
