"""Every top-level def and class in the package is used by the package itself.

Reference code that only tests call belongs in ``tests/reference.py``. A
name counts as used when a top-level statement other than its own
definition, in any package module but ``__init__.py``, loads it as an AST
``Name`` (a docstring, a bare import, an attribute or a field of the same
name does not count), or when the benchmark tracer wraps it (``PATCHES`` in
``bench/tracing.py``). A name the package exports must be read by the
package itself, not only wrapped by the tracer.
"""

import ast
from collections import defaultdict
from pathlib import Path

import boundary_vicinity
from test_tracing_names import read_patches

PACKAGE = Path(boundary_vicinity.__file__).parent


def unused_definitions(sources: dict[str, str], wrapped: set[str]) -> list[str]:
    """``module:line: name`` of each top-level def or class nothing else reads."""
    defined, readers = [], defaultdict(set)  # name -> (module, line) of statements reading it
    for module, source in sources.items():
        for statement in ast.parse(source, module).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, statement))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].add((module, statement.lineno))
    # a definition's reads of its own name (recursion) do not count
    return [f"{module}:{node.lineno}: {node.name}" for module, node in defined
            if node.name not in wrapped
            and not readers[node.name] - {(module, node.lineno)}]


def test_unused_definitions_are_found():
    sources = {
        "a.py": 'def used():\n    """Calls nothing."""\n\n\n'
                'def unused():\n    """Read by nothing."""\n\n\n'
                "def recursive(n):\n    return recursive(n - 1)\n\n\n"
                "class Shape:\n    pass\n\n\n"
                "def traced():\n    pass\n",
        "b.py": "from .a import used, unused, recursive, Shape\n"
                '"""unused, recursive"""\n'
                "used()\n"
                "side = Shape.side\n"
                "unused = side.unused\n",
    }
    assert unused_definitions(sources, {"traced"}) == ["a.py:5: unused", "a.py:9: recursive"]


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_every_package_definition_is_used_by_the_package():
    wrapped = {name for names in read_patches().values() for name in names}
    unused = unused_definitions(package_sources(), wrapped)
    assert not unused, "defined but not used in the package: " + ", ".join(unused)


def kept_by_the_tracer_alone() -> set[str]:
    return {entry.rpartition(": ")[2] for entry in unused_definitions(package_sources(), set())}


def test_no_export_is_kept_alive_by_the_tracer_alone():
    exported = sorted(kept_by_the_tracer_alone() & set(boundary_vicinity.__all__))
    assert not exported, "exported, but the package never reads: " + ", ".join(exported)


def test_the_definitions_the_tracer_alone_keeps_are_pinned():
    """``bva`` never calls these four; only the tracer's wraps keep them in the
    package. ROADMAP item 1 drops those wraps, and then they may move to
    ``tests/reference.py``. A new definition that only a wrap keeps fails here."""
    assert kept_by_the_tracer_alone() == {"subgraph", "random_walk", "psrf",
                                          "run_converged_walks"}


def reaches_inside(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` of each import of another module's ``_``-prefixed
    (not dunder) name, and of each read of a traceback's frames."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source, module)):
            if isinstance(node, ast.ImportFrom):
                found += [f"{module}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
            elif isinstance(node, ast.Attribute) and node.attr in ("__traceback__", "tb_next"):
                found.append(f"{module}:{node.lineno}: {node.attr}")
    return found


def test_reaches_inside_are_found():
    source = ("from . import __version__\n"
              "from .walker import WalkConfig, _converge_together\n"
              "def main():\n"
              "    try:\n"
              "        pass\n"
              "    except MemoryError as exc:\n"
              "        last = exc.__traceback__\n"
              "        last = last.tb_next\n")
    assert reaches_inside({"cli.py": source}) == [
        "cli.py:2: _converge_together", "cli.py:7: __traceback__", "cli.py:8: tb_next"]


def test_no_module_reaches_inside_another_or_a_traceback():
    """A module asks another through its public names; an error's meaning is
    decided where it is raised, not read back from the traceback."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert reaches_inside(sources) == []


def input_path_namers(source: str) -> list[str]:
    """``line: f-string`` of each f-string outside ``_naming`` that names an input
    file: one that starts with a formatted ``path`` or ``args.events``, or that
    says ``cannot read``."""
    found = []
    for statement in ast.parse(source).body:
        if getattr(statement, "name", None) == "_naming":
            continue
        for node in ast.walk(statement):
            if not isinstance(node, ast.JoinedStr) or not node.values:
                continue
            first = node.values[0]
            if (isinstance(first, ast.FormattedValue)
                    and ast.unparse(first.value) in ("path", "args.events")
                    or any(isinstance(part, ast.Constant) and "cannot read" in part.value
                           for part in node.values)):
                found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_input_path_namers_are_found():
    source = ("@contextmanager\n"
              "def _naming(path):\n"
              "    raise ValueError(f'cannot read {path}: {exc}')\n"
              "def read(path, args):\n"
              "    raise ValueError(f'{path}: line {number}')\n"
              "    raise ValueError(f'{args.events}: {exc}')\n"
              "    raise ValueError(f'cannot read {name}')\n"
              "    raise ValueError(f'files differ: {path} lists {name!r}')\n")
    assert input_path_namers(source) == [
        "5: f'{path}: line {number}'", "6: f'{args.events}: {exc}'",
        "7: f'cannot read {name}'"]


def test_only_naming_names_an_input_file_in_an_error():
    """Which file an input error names is decided in one place, ``cli._naming``."""
    assert input_path_namers((PACKAGE / "cli.py").read_text()) == []
