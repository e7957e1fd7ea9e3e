"""The benchmark tracer wraps names by (module, attribute); each must exist.

``bench/tracing.py`` is read as text, not imported, and its ``PATCHES``
literal is evaluated on its own.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def read_patches() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        targets = getattr(node, "targets", ())
        if any(isinstance(t, ast.Name) and t.id == "PATCHES" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCHES assignment in {TRACING}")


def test_every_traced_name_exists():
    patches = read_patches()
    assert patches
    missing = [
        f"{module_name}.{attr}"
        for module_name, attrs in patches.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"boundary_vicinity.{module_name}"),
                                attr, None))
    ]
    assert not missing
