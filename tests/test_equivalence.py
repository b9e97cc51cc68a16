"""The batched engine reproduces the per-agent engine it replaced.

``data/engine_equivalence.json`` holds five feeders (``generate_topology``
line 10 a, fat-tree 7 abc and fat-tree 7 ab, the four-bus three-phase
feeder of criterion 6, and a seven-bus feeder with one, two and three
phases, a half-disk DER, and buses whose ids do not follow their child
counts) with what the per-agent engine, one Python call per bus and
round, returned for each at the default config: the status, the
iteration count, the final (r, s, objective) and the final primal blocks
as float views. The batched engine does the same arithmetic but reduces
the residuals in another order and projects with masked eigenvalues, so
iteration counts must match exactly and values within 1e-12.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from radialopf.engine import SolverConfig, run
from radialopf.network import loads_feeder

RECORDS = json.loads((Path(__file__).parent / "data" / "engine_equivalence.json").read_text())
TOL = 1e-12


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_matches_per_agent_engine(name):
    record = RECORDS[name]
    result = run(loads_feeder(json.dumps(record["feeder"])), SolverConfig())
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
