"""Every span that perfbench traces still names a callable of the package.

perfbench wraps module attributes by name (``SPANS`` in
``perfbench/bench.py``) and reports a span it cannot find as absent. This
reads that table without importing perfbench, so a change that renames
or deletes a traced function fails here first.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"


def bench_spans():
    tree = ast.parse(BENCH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {BENCH}")


def test_every_span_resolves_to_a_callable():
    spans = bench_spans()
    assert spans
    for owner_path, attr, span in spans:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"radialopf.{module}")
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, attr, None)), f"span {span}: {owner_path}.{attr}"
