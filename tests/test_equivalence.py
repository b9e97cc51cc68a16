"""The batched engine reproduces the per-agent reference executor.

``data/engine_equivalence.json`` holds five feeders (``generate_topology``
line 10 a, fat-tree 7 abc and fat-tree 7 ab, the four-bus three-phase
feeder of criterion 6, and a seven-bus feeder with one, two and three
phases, a half-disk DER, and buses whose ids do not follow their child
counts) with what ``reference.py``, one object per bus that learns of
its neighbors only by messages, returned for each at the default config:
the status, the iteration count, the final (r, s, objective) and the
final primal blocks as float views. Each record names the command that
recorded it and the config (``recorded_by``). After a change that moves
the iterates on purpose, make the same change in ``reference.py`` if it
is not in a kernel that both call, and re-record every record with that
command. The batched engine does the same arithmetic but sums in
another order, so iteration counts must match exactly and values within
1e-12.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import reference

from radialopf.engine import SolverConfig, State, run
from radialopf.network import loads_feeder

RECORDS = json.loads((Path(__file__).parent / "data" / "engine_equivalence.json").read_text())
TOL = 1e-12


def assert_matches(result, record):
    assert result.status == record["status"]
    assert len(result.history) == record["iters"]
    last = result.history[-1]
    for key in ("r", "s", "objective"):
        assert abs(getattr(last, key) - record[key]) <= TOL, key
    assert sorted(result.solution) == sorted(int(i) for i in record["solution"])
    for i, blocks in record["solution"].items():
        got = result.solution[int(i)]
        present = {f for f in ("v", "s", "S", "ell") if getattr(got, f) is not None}
        assert present == set(blocks)
        for field, want in blocks.items():
            values = np.asarray(getattr(got, field)).view(float).ravel()
            np.testing.assert_allclose(values, want, rtol=0, atol=TOL, err_msg=f"bus {i} {field}")


def feeder(name):
    return loads_feeder(json.dumps(RECORDS[name]["feeder"]))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_matches_per_agent_engine(name):
    assert_matches(run(feeder(name), SolverConfig()), RECORDS[name])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_reference_reproduces_its_records(name):
    # each record names the command that recorded it and its config, the default
    record = RECORDS[name]
    config = SolverConfig(**record["recorded_by"]["config"])
    assert record["recorded_by"]["command"] == reference.COMMAND
    assert config == SolverConfig()
    assert_matches(reference.run(feeder(name), config), record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_reference_messages_are_the_engines(name):
    # the (sender, receiver) pairs whose messages the reference's buses
    # read, at the flat start and in two iterations, are the engine's
    # and run along tree edges, both ways
    model = feeder(name)
    ref = reference.Reference(model, SolverConfig())
    for _ in range(2):
        ref.iterate()
    used = ref.used()
    assert used == State(model, SolverConfig()).messages
    edges = {(ln.bus, ln.parent) for ln in model.lines}
    assert used == edges | {(b, a) for a, b in edges}
