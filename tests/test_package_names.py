"""Every top-level def and class in the package is used by the package itself.

Reference code that only tests call belongs in ``tests/reference.py``. A
name counts as used when a top-level statement other than its own
definition, in any package module but ``__init__.py``, reads it as an AST
``Name`` or ``Attribute`` (a docstring or a bare import does not count), or
when the benchmark tracer wraps it (``PATCHES`` in ``bench/tracing.py``).
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
                if isinstance(node, ast.Name):
                    readers[node.id].add((module, statement.lineno))
                elif isinstance(node, ast.Attribute):
                    readers[node.attr].add((module, statement.lineno))
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
                "side = Shape.side\n",
    }
    assert unused_definitions(sources, {"traced"}) == ["a.py:5: unused", "a.py:9: recursive"]


def test_every_package_definition_is_used_by_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    wrapped = {name for names in read_patches().values() for name in names}
    unused = unused_definitions(sources, wrapped)
    assert not unused, "defined but not used in the package: " + ", ".join(unused)
