"""Self-test of the benchmark: quick mode through the full output schema.

    python3 -m pytest perfbench/test_run.py -q

Runs ``run.py --quick`` on every workload with tracing off and on, and
checks the result line against BENCHMARK.json and the layer map; checks
that the objective gate refuses a solve stopped 200 iterations early.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())["metrics"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, quick: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_every_metric(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    readout = json.loads(lines[-2])["readout"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, readout["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert readout["recorded_seed"] and readout["inputs_match_record"]
    assert all(f["objective_checked"] for f in readout["feeders"])
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert readout["history_bitwise_equal"] and not readout["absent_spans"]
        newton = result["metrics"]["subproblems.disk_newton_us"]["value"]
        assert (newton > 0) == (workload == "mixed-der")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_a_solve_stopped_early(workload):
    run.bootstrap()
    import bench

    wl = bench.Workload(workload, 1, quick=True)
    model, reference = wl.models[0], wl.references[0]
    early = bench.radialopf.run(model, bench.solve_config(max_iters=reference["iters"] - 200))
    bfm = bench.radialopf.check_bfm_feasibility(early.solution, model, tol=bench.BFM_TOL)
    reasons = bench.gate(model, early, bfm, reference)
    assert any(r.startswith("objective") for r in reasons), reasons


def test_layer_map_covers_per_layer_metrics():
    assert set(LAYERS) == {m["name"] for m in SPEC["per_layer"]}
    for entry in LAYERS.values():
        assert set(entry["on"]) <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(WORKLOADS[0], 0, cwd=tmp_path, quick=False)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tracer_restores_and_reports_absent():
    def double(x):
        return 2 * x

    owner = types.SimpleNamespace(double=double)
    with Tracer(keep=("double",)) as tracer:
        tracer.wrap(owner, "double", "double")
        tracer.wrap(owner, "gone", "gone")
        assert owner.double(3) == 6
    assert owner.double is double
    assert tracer.absent == ["gone"]
    assert tracer.calls("double") == 1 and len(tracer.kept) == 1
    assert tracer.total("gone") is None
