import csv
import json
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import nan_cost

from radialopf import cli, engine
from radialopf.cli import (
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from radialopf.network import (
    FeederModel,
    TopologyTemplate,
    feeder_to_dict,
    generate_topology,
    loads_feeder,
)
from radialopf.serialize import BENCH_HEADER, HISTORY_HEADER


def write_two_bus(path):
    doc = {
        "buses": [
            {
                "id": 0,
                "phases": "a",
                "vmin": [1.0],
                "vmax": [1.0],
                "region": [{"type": "box", "p": [None, None], "q": [None, None]}],
                "cost": [{"alpha": 0.0, "beta": 1.0}],
            },
            {
                "id": 1,
                "phases": "a",
                "vmin": [0.9025],
                "vmax": [1.1025],
                "region": [{"type": "box", "p": [-0.3, -0.2], "q": [-0.1, 0.1]}],
                "cost": [{"alpha": 0.0, "beta": 1.0}],
            },
        ],
        "lines": [{"bus": 1, "parent": 0, "z": [[{"re": 0.05, "im": 0.1}]]}],
    }
    path.write_text(json.dumps(doc))


def test_solve_verify_pipeline(tmp_path):
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    code = main(
        ["solve", "--network", str(net), "--rho", "1.0", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    assert (out / "solution.json").exists()
    assert (out / "iterations.csv").exists()
    assert (out / "manifest.json").exists()

    with open(out / "iterations.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == HISTORY_HEADER
    assert len(rows) > 1

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "converged"
    assert manifest["iterations"] <= manifest["config"]["max_iters"]
    assert manifest["exactness"]["exact"]

    report = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--solution",
            str(out / "solution.json"),
            "--network",
            str(net),
            "--out",
            str(report),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert doc["bfm"]["ok"] and doc["rank1"]["exact"]


def test_manifest_records_environment(tmp_path):
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    assert main(["solve", "--network", str(net), "--out-dir", str(out)]) == EXIT_OK
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "blas", "lapack", "cpu_count"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    for lib in ("blas", "lapack"):
        assert env[lib] == {"name": deps[lib]["name"], "version": deps[lib]["version"]}
    assert env["cpu_count"] == os.cpu_count()


def test_solve_max_iters_exit_code(tmp_path):
    net = tmp_path / "net.json"
    write_two_bus(net)
    code = main(
        [
            "solve",
            "--network",
            str(net),
            "--max-iters",
            "1",
            "--out-dir",
            str(tmp_path / "r"),
        ]
    )
    assert code == EXIT_MAX_ITERS


def test_solve_diverged_exit_code(tmp_path, monkeypatch, capsys):
    # the loader and the types reject a NaN cost, so the model is swapped
    # in after loading
    net = tmp_path / "net.json"
    write_two_bus(net)
    model = loads_feeder(net.read_text())
    load = replace(model.buses[1], cost=(nan_cost(),))
    bad = FeederModel((model.buses[0], load), model.lines)
    monkeypatch.setattr(cli, "load_feeder", lambda path: bad)
    code = main(["solve", "--network", str(net), "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_DIVERGED
    assert not (tmp_path / "r").exists()
    assert len({EXIT_OK, EXIT_MAX_ITERS, EXIT_VALIDATION, EXIT_IO, EXIT_DIVERGED}) == 5
    assert "diverged" in capsys.readouterr().err


def test_solve_growing_residual_exit_code(tmp_path, monkeypatch, capsys):
    # a y round that doubles y every iteration: r grows, finite, past the
    # divergence bound
    def doubling(state):
        np.copyto(state.y_prev, state.y)
        state.y *= 2.0

    net = tmp_path / "net.json"
    write_two_bus(net)
    monkeypatch.setattr(engine, "y_update_round", doubling)
    code = main(["solve", "--network", str(net), "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_DIVERGED
    assert not (tmp_path / "r").exists()
    err = capsys.readouterr().err
    assert "diverged" in err and "inf" not in err and "nan" not in err


def test_solve_missing_file(tmp_path, capsys):
    code = main(["solve", "--network", str(tmp_path / "nope.json")])
    assert code == EXIT_IO
    assert "nope.json" in capsys.readouterr().err


def test_solve_invalid_network(tmp_path):
    net = tmp_path / "bad.json"
    net.write_text("{\"buses\": [], \"lines\": []}")
    code = main(["solve", "--network", str(net)])
    assert code == EXIT_VALIDATION


def run_module(tmp_path, *args):
    """``python -m radialopf *args`` in ``tmp_path``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "radialopf", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def run_as_program(tmp_path, command, net):
    """``python -m radialopf command --network net``, with a solution path
    for ``verify``; an uncaught error would print its traceback."""
    args = ["--network", str(net)]
    if command == "verify":
        args += ["--solution", str(tmp_path / "solution.json")]
    return run_module(tmp_path, command, *args)


USAGE_ERRORS = [["solve", "--rho", "abc"], ["solve"], ["frobnicate"], ["verify", "--tol"]]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_with_the_validation_code(capsys, argv):
    # argparse's own code, 2, is EXIT_MAX_ITERS here
    assert main(argv) == EXIT_VALIDATION
    assert "error: " in capsys.readouterr().err


def test_usage_errors_as_a_program(tmp_path):
    proc = run_module(tmp_path, "solve", "--rho", "abc")
    assert proc.returncode == EXIT_VALIDATION
    assert "Traceback" not in proc.stderr and "error: " in proc.stderr
    assert run_module(tmp_path, "solve", "--help").returncode == EXIT_OK


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["verify", "--help"]) == EXIT_OK
    assert "--rank-threshold" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
def test_solve_rejects_a_bad_rank_threshold_before_solving(tmp_path, capsys, monkeypatch, bad):
    def no_run(*args):
        raise AssertionError("solved")

    net = tmp_path / "net.json"
    write_two_bus(net)
    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "r"
    code = main(["solve", "--network", str(net), "--out-dir", str(out), "--rank-threshold", bad])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        f"error: rank threshold must be a finite number >= 0, got {float(bad)!r}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--tol", "tol"), ("--rank-threshold", "rank threshold")])
@pytest.mark.parametrize("bad", ["nan", "-1"])
def test_verify_rejects_a_bad_threshold(tmp_path, capsys, flag, name, bad):
    net = tmp_path / "net.json"
    write_two_bus(net)
    run = tmp_path / "run"
    assert main(["solve", "--network", str(net), "--out-dir", str(run)]) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "report.json"
    argv = ["verify", "--solution", str(run / "solution.json"), "--network", str(net)]
    code = main(argv + ["--out", str(report), flag, bad])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {name} must be a finite number >= 0, got {float(bad)!r}"
    ]
    assert captured.out == "" and not report.exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_utf8_feeder_file_exits_without_traceback(tmp_path, command):
    net = tmp_path / "net.json"
    net.write_bytes(b"\xff\xfe{}")
    proc = run_as_program(tmp_path, command, net)
    assert proc.returncode == EXIT_VALIDATION
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {net}: not UTF-8 text")
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("key, value", [("buses", 5), ("lines", 3)])
def test_non_list_buses_or_lines_exit_without_traceback(tmp_path, command, key, value):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(dict({"buses": [], "lines": []}, **{key: value})))
    proc = run_as_program(tmp_path, command, net)
    assert proc.returncode == EXIT_VALIDATION
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"error: {net}: '{key}' must be a list"]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_unknown_box_keys_exit_without_traceback(tmp_path, command):
    # bounds written as p_lo, p_hi, q_lo, q_hi are not read as a box
    net = tmp_path / "net.json"
    write_two_bus(net)
    doc = json.loads(net.read_text())
    box = {"type": "box", "p_lo": -1, "p_hi": 1, "q_lo": -1, "q_hi": 1}
    doc["buses"][0]["region"] = [box]
    net.write_text(json.dumps(doc))
    proc = run_as_program(tmp_path, command, net)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.splitlines() == [f"error: {net}: buses[0].region[0]: unknown key 'p_lo'"]


def test_solve_huge_integer_is_a_parse_error(tmp_path, capsys):
    # a JSON integer beyond the float range is rejected, not an OverflowError
    net = tmp_path / "net.json"
    write_two_bus(net)
    doc = json.loads(net.read_text())
    doc["buses"][1]["vmax"] = [10**400]
    net.write_text(json.dumps(doc))
    code = main(["solve", "--network", str(net), "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_VALIDATION
    assert "buses[1].vmax[0]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_generate_and_validate(tmp_path):
    out = tmp_path / "feeder.json"
    code = main(["generate", "--kind", "fat-tree", "--size", "7", "--out", str(out)])
    assert code == EXIT_OK
    from radialopf.network import load_feeder, validate_radial

    assert validate_radial(load_feeder(out)) == []


def test_generate_size_one_rejected(tmp_path):
    code = main(
        ["generate", "--kind", "line", "--size", "1", "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_VALIDATION


def test_verify_flags_corruption(tmp_path, capsys):
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    main(["solve", "--network", str(net), "--out-dir", str(out)])
    doc = json.loads((out / "solution.json").read_text())
    doc["buses"][1]["v"][0][0]["re"] += 0.2
    (out / "solution.json").write_text(json.dumps(doc))
    code = main(
        ["verify", "--solution", str(out / "solution.json"), "--network", str(net)]
    )
    assert code == EXIT_VALIDATION
    assert "bus 1" in capsys.readouterr().out


def test_verify_mismatched_network(tmp_path):
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    main(["solve", "--network", str(net), "--out-dir", str(out)])
    other = tmp_path / "other.json"
    code = main(["generate", "--kind", "line", "--size", "3", "--out", str(other)])
    assert code == EXIT_OK
    code = main(
        ["verify", "--solution", str(out / "solution.json"), "--network", str(other)]
    )
    assert code == EXIT_VALIDATION


def test_bench_rows_and_determinism(tmp_path):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    args = [
        "bench",
        "--kinds",
        "line",
        "--sizes",
        "3,5",
        "--max-iters",
        "4000",
    ]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK

    def load(path):
        with open(path) as fh:
            return list(csv.reader(fh))

    rows1, rows2 = load(out1), load(out2)
    assert rows1[0] == BENCH_HEADER
    assert len(rows1) == 3
    # deterministic columns reproduce across runs; timing columns are wall clock
    assert [r[:3] for r in rows1] == [r[:3] for r in rows2]


def test_bench_reports_failed_solves(tmp_path, monkeypatch):
    out = tmp_path / "b.csv"
    args = ["bench", "--kinds", "line", "--sizes", "3", "--out", str(out)]
    assert main(args + ["--max-iters", "1"]) == EXIT_MAX_ITERS
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "status"
    assert rows[1][-1] == "max-iters"

    # one diverged row outranks a row that hit the cap
    real_generate = cli.generate_topology

    def generate(kind, size, template):
        model = real_generate(kind, size, template)
        if size != 4:
            return model
        load = replace(model.buses[1], cost=(nan_cost(),))
        return FeederModel((model.buses[0], load) + model.buses[2:], model.lines)

    monkeypatch.setattr(cli, "generate_topology", generate)
    args = ["bench", "--kinds", "line", "--sizes", "3,4", "--max-iters", "50"]
    assert main(args + ["--out", str(out)]) == EXIT_DIVERGED
    with open(out) as fh:
        assert [r[-1] for r in csv.reader(fh)] == ["status", "max-iters", "diverged"]


def test_bench_empty_sizes(tmp_path):
    code = main(["bench", "--sizes", "", "--out", str(tmp_path / "b.csv")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "flags",
    [
        ["--rho", "0"],
        ["--rho", "nan"],
        ["--max-iters", "0"],
        ["--tol", "-1"],
        ["--tol", "nan", "--max-iters", "50"],
        ["--tol", "inf"],
    ],
)
def test_solve_rejects_bad_solver_flags(tmp_path, capsys, flags):
    net = tmp_path / "net.json"
    write_two_bus(net)
    code = main(["solve", "--network", str(net), "--out-dir", str(tmp_path / "r")] + flags)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("flags", [["--sizes", "x"], ["--rho", "0"], ["--tol", "nan"]])
def test_bench_rejects_bad_flags(tmp_path, capsys, flags):
    out = tmp_path / "b.csv"
    code = main(["bench", "--kinds", "line", "--sizes", "3", "--out", str(out)] + flags)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"buses": [{"id": 0, "v": [[{"re": None, "im": 0}]], "s": []}]},
        [1],
        {"buses": [{"id": 1.7, "v": [], "s": []}]},
        {"buses": [{"id": True, "v": [], "s": []}]},
        {"buses": [{"id": "1", "v": [], "s": []}]},
        {"buses": [{"id": 1, "v": [], "s": []}, {"id": 1, "v": [], "s": []}]},
    ],
)
def test_verify_malformed_solution_document(tmp_path, capsys, doc):
    net = tmp_path / "net.json"
    write_two_bus(net)
    sol = tmp_path / "solution.json"
    sol.write_text(json.dumps(doc))
    code = main(["verify", "--solution", str(sol), "--network", str(net)])
    assert code == EXIT_VALIDATION
    assert "malformed solution document" in capsys.readouterr().err


def test_verify_rejects_a_bus_the_feeder_does_not_have(tmp_path, capsys):
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    main(["solve", "--network", str(net), "--out-dir", str(out)])
    capsys.readouterr()
    doc = json.loads((out / "solution.json").read_text())
    doc["buses"].append(dict(doc["buses"][1], id=99))
    (out / "solution.json").write_text(json.dumps(doc))
    code = main(["verify", "--solution", str(out / "solution.json"), "--network", str(net)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [
        "error: solution has bus 99, which the feeder does not have"
    ]


def test_verify_rejects_a_mis_shaped_branch_block(tmp_path, capsys):
    # a (1, 2) S on a two-phase bus is a shape error; it used to be
    # broadcast into the power-balance residual
    net = tmp_path / "net.json"
    model = generate_topology("line", 2, TopologyTemplate(phases="ab"))
    net.write_text(json.dumps(feeder_to_dict(model)))
    out = tmp_path / "run"
    main(["solve", "--network", str(net), "--out-dir", str(out)])
    capsys.readouterr()
    doc = json.loads((out / "solution.json").read_text())
    doc["buses"][1]["S"] = doc["buses"][1]["S"][:1]
    (out / "solution.json").write_text(json.dumps(doc))
    code = main(["verify", "--solution", str(out / "solution.json"), "--network", str(net)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == ["error: bus 1: solution shape mismatch"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, "0.5"])
def test_verify_rejects_non_finite_solution_entry(tmp_path, capfd, bad):
    # rejected at load time, before the rank check's SVD can see it
    net = tmp_path / "net.json"
    write_two_bus(net)
    out = tmp_path / "run"
    main(["solve", "--network", str(net), "--out-dir", str(out)])
    capfd.readouterr()
    doc = json.loads((out / "solution.json").read_text())
    doc["buses"][1]["S"][0][0]["im"] = bad
    (out / "solution.json").write_text(json.dumps(doc))
    code = main(["verify", "--solution", str(out / "solution.json"), "--network", str(net)])
    assert code == EXIT_VALIDATION
    err = capfd.readouterr().err
    assert err.splitlines() == [
        f"error: malformed solution document: bus 1 S[0][0].im: {bad!r} is not a finite number"
    ]
