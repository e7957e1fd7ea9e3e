"""The README's Python example runs and does what its comments say."""

import contextlib
import io
from pathlib import Path

import numpy as np

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs_as_its_comments_say():
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), namespace)
    scores, bset = namespace["scores"], namespace["bset"]
    assert set(np.argsort(-scores.normalized)[:2].tolist()) == {2, 3}
    assert bset.boundary_nodes.tolist() == [2, 3]
    assert scores.walkers_used.tolist() == [50, 50]
