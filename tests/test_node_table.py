"""Every node-keyed CSV is byte for byte what a per-row writer loop gives.

The references are the writers' per-row loops written out: the node token,
then each value (a float through ``float(x)!r``, an int as is), one line per
node in dense id order, after the optional comment line and the header.
"""

import dataclasses
import io

import numpy as np
import pytest

from boundary_vicinity import (
    betweenness_brandes,
    connect_communities,
    connected_components,
    erdos_renyi,
    load_edge_list,
    preferential_attachment,
    run_pipeline,
)
from boundary_vicinity.cli import main
from boundary_vicinity.pipeline import (
    _run_params,
    write_betweenness_csv,
    write_communities_csv,
    write_components_csv,
    write_scores_csv,
)

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
        out += (f"{g.name_of(v)},{float(result.scores.raw[v])!r},"
                f"{float(result.scores.normalized[v])!r}\n")
    return out


def communities_reference(g, labeling, seed=None, q_threshold=None) -> str:
    out = "" if seed is None else f"# seed={seed} q_threshold={q_threshold}\n"
    out += "node_id,community_id\n"
    for v in range(g.num_nodes):
        out += f"{g.name_of(v)},{labeling.labels[v]}\n"
    return out


def components_reference(g) -> str:
    parts = connected_components(g)
    out = "node_id,component_id\n"
    for v in range(g.num_nodes):
        out += f"{g.name_of(v)},{parts.component_id[v]}\n"
    return out


def betweenness_reference(g, values) -> str:
    out = "node_id,betweenness\n"
    for v in range(g.num_nodes):
        out += f"{g.name_of(v)},{float(values[v])!r}\n"
    return out


@pytest.fixture(params=["string-tokens", "generated"])
def graph(request):
    if request.param == "string-tokens":
        g = load_edge_list(io.StringIO(
            "alice bob\nbob carol\ncarol alice\ncarol dave\ndave erin\nerin frank\n"
            "frank dave\nx-1,y.2\n10 alice\n"
        ))
        assert g.names is not None
    else:
        g = erdos_renyi(40, 0.06, seed=2)  # several components and isolated nodes
        assert g.names is None
    return g


def test_scores_csv_matches_per_row_loop(graph):
    result = run_pipeline(graph, seed=1, q_threshold=0.2)
    n = graph.num_nodes
    special = dataclasses.replace(result, scores=dataclasses.replace(
        result.scores, raw=special_column(n, 0), normalized=special_column(n, 5)))
    for res in (result, special):
        assert written(write_scores_csv, res) == scores_reference(res)


def test_communities_csv_matches_per_row_loop(graph):
    labeling = run_pipeline(graph, seed=1, q_threshold=0.2).labeling
    assert written(write_communities_csv, graph, labeling) == \
        communities_reference(graph, labeling)
    assert written(write_communities_csv, graph, labeling, seed=4, q_threshold=0.25) == \
        communities_reference(graph, labeling, seed=4, q_threshold=0.25)


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
