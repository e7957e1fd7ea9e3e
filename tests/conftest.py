from __future__ import annotations

from pathlib import Path

import pytest

from boundary_vicinity import Graph, build_graph, load_edge_list

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def karate() -> Graph:
    with open(DATA_DIR / "karate.edges") as handle:
        return load_edge_list(handle)


@pytest.fixture()
def two_triangles_bridged() -> Graph:
    """Two triangles {0,1,2} and {3,4,5} joined by the single edge (2, 3)."""
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


@pytest.fixture()
def two_triangles_disjoint() -> Graph:
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """v's neighbours, ascending, read from the CSR."""
    indptr, indices = g.csr
    return tuple(indices[indptr[v]:indptr[v + 1]].tolist())


def edge_tuples(g: Graph) -> tuple[tuple[int, int], ...]:
    """``g.edges`` as (u, v) tuples, in edge order."""
    return tuple(map(tuple, g.edges.tolist()))


def random_connected_graph(rng, max_nodes: int = 8) -> Graph:
    """Small random connected graph: a random spanning tree plus extra edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    order = list(rng.permutation(n))
    for i in range(1, n):
        u = order[i]
        v = order[int(rng.integers(i))]
        edges.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, n * (n - 1) // 2 + 1))
    for _ in range(extra):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))
