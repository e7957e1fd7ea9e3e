"""The package starts numpy without an OpenBLAS thread pool or ``numpy.ma``, and calls
no BLAS."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundary_vicinity

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


@pytest.mark.parametrize("command", ["pipeline", "boundary"])
def test_command_leaves_numpy_ma_unimported(command, tmp_path):
    """``numpy.ma`` costs about 10 ms to import, and neither command needs it."""
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{v},{v // 17}\n" for v in range(34)))
    argv = [command, "--input", str(KARATE), "--out", str(tmp_path)]
    argv += ["--labels", str(labels)] if command == "boundary" else []
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
