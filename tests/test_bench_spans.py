"""Every span that perfbench traces still names a callable of the package,
and a run calls it.

perfbench wraps module attributes by name (``SPANS`` in
``perfbench/bench.py``) and reports a span it cannot find as absent. This
reads that table without importing perfbench, so a change that renames
or deletes a traced function fails here first, and so does one that
stops calling it, which would read 0 us.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

from radialopf import engine, network

BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
DATA = Path(__file__).parent / "data" / "engine_equivalence.json"


def bench_spans():
    tree = ast.parse(BENCH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {BENCH}")


def owner_of(owner_path):
    """The module, or the class in it, that a span's attribute lives on."""
    module, _, cls = owner_path.partition(".")
    owner = importlib.import_module(f"radialopf.{module}")
    return getattr(owner, cls) if cls else owner


def test_every_span_resolves_to_a_callable():
    spans = bench_spans()
    assert spans
    for owner_path, attr, span in spans:
        owner = owner_of(owner_path)
        assert callable(getattr(owner, attr, None)), f"span {span}: {owner_path}.{attr}"


def test_every_span_is_called_during_a_run(monkeypatch):
    # the mixed-phase feeder has 2x2 and 4x4/6x6 blocks and half-disk
    # phases, and reaches the disk Newton solve within 50 iterations
    calls = Counter()

    def counting(key, original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return counted

    spans = bench_spans()
    for owner_path, attr, _ in spans:
        owner = owner_of(owner_path)
        monkeypatch.setattr(owner, attr, counting((owner_path, attr), getattr(owner, attr)))
    doc = json.loads(DATA.read_text(encoding="utf-8"))
    model = network.loads_feeder(json.dumps(doc["mixed-7-unsorted"]["feeder"]))
    engine.run(model, engine.SolverConfig(max_iters=50))
    missed = [span for owner_path, attr, span in spans if not calls[owner_path, attr]]
    assert not missed, f"spans never called: {missed}"
