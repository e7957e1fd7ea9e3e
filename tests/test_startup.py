"""The package starts numpy without an OpenBLAS thread pool or ``numpy.ma``, and calls
no BLAS."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundary_vicinity
from boundary_vicinity import connect_communities, preferential_attachment, write_edge_list
from boundary_vicinity.community import COLOUR_MOVE_MIN_NODES

PACKAGE = Path(boundary_vicinity.__file__).parent
KARATE = Path(__file__).parent / "data" / "karate.edges"
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_sets_openblas_threads_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    probe = "import os, boundary_vicinity; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == expected


@pytest.mark.parametrize("command", ["pipeline", "boundary", "temporal", "pipeline-colour"])
def test_command_leaves_numpy_ma_unimported(command, tmp_path):
    """``numpy.ma`` costs about 10 ms to import, and no command needs it.

    ``pipeline-colour`` runs on two planted parts of ``COLOUR_MOVE_MIN_NODES / 2``
    nodes, so Louvain's first level takes the colour-class move.
    """
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{v},{v // 17}\n" for v in range(34)))
    # two 6-cliques joined by one edge: 2 boundary nodes, so a control set exists
    bridged = tmp_path / "bridged.edges"
    bridged.write_text("5 6\n" + "".join(f"{a} {b}\n" for base in (0, 6)
                                         for a in range(base, base + 6)
                                         for b in range(a + 1, base + 6)))
    events = tmp_path / "events.csv"
    events.write_text("".join(f"{60 * t + v},{v}\n" for t in range(8) for v in range(12)))
    planted = tmp_path / "planted.edges"
    if command == "pipeline-colour":
        half = COLOUR_MOVE_MIN_NODES // 2
        parts = [preferential_attachment(half, 3, seed=i) for i in range(2)]
        with open(planted, "w") as handle:
            write_edge_list(connect_communities(parts, 10, seed=0).graph, handle)
    argv = {"pipeline": ["pipeline", "--input", str(KARATE)],
            "boundary": ["boundary", "--input", str(KARATE), "--labels", str(labels)],
            "temporal": ["temporal", "--input", str(bridged), "--events", str(events)],
            "pipeline-colour": ["pipeline", "--input", str(planted)]}[command]
    argv = [*argv, "--out", str(tmp_path)]
    probe = ("import sys; from boundary_vicinity.cli import main; "
             f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def blas_uses(tree: ast.AST):
    """Line and name of every matrix product or BLAS-backed numpy name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in BLAS_NAMES:
            yield node.lineno, node.name


def test_blas_uses_are_found():
    source = "import numpy.linalg\nfrom numpy import einsum\nc = a @ b\nc @= a\nd = a.dot(b)\n"
    assert sorted(blas_uses(ast.parse(source))) == [
        (1, "numpy.linalg"), (2, "einsum"), (3, "@"), (4, "@"), (5, "dot")]


def test_package_makes_no_blas_call():
    """A BLAS call would run on one thread once the package sets OPENBLAS_NUM_THREADS."""
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in blas_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, "BLAS call in the package: " + ", ".join(found)
