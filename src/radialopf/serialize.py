"""File formats emitted and consumed by the command-line driver.

Solution documents mirror the feeder layout with per-bus (v, s, S, ell)
entries, complex numbers spelled as {"re": x, "im": y}. Iteration
histories are CSV with the fixed header ``k,r,s,objective``; benchmark
sweeps use ``kind,size,iterations,total_s,per_bus_s,status``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform

import numpy as np

from .engine import IterationStats, RunResult, SolverConfig
from .network import FeederModel, _complex_to_json, _integer, _parse_complex, feeder_to_dict
from .subproblems import XBlock

__all__ = [
    "HISTORY_HEADER",
    "BENCH_HEADER",
    "model_hash",
    "solution_to_dict",
    "solution_from_dict",
    "write_solution",
    "read_solution",
    "write_history_csv",
    "build_manifest",
    "write_manifest",
]

HISTORY_HEADER = ["k", "r", "s", "objective"]
BENCH_HEADER = ["kind", "size", "iterations", "total_s", "per_bus_s", "status"]


def model_hash(model: FeederModel) -> str:
    canonical = json.dumps(feeder_to_dict(model), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def solution_to_dict(
    solution: dict[int, XBlock], model: FeederModel, status: str, objective: float,
    iterations: int,
) -> dict:
    buses = []
    for b in model.buses:
        blk = solution[b.id]
        entry = {
            "id": b.id,
            "phases": b.phases.letters,
            "v": _complex_to_json(blk.v),
            "s": _complex_to_json(blk.s),
            "S": None if blk.S is None else _complex_to_json(blk.S),
            "l": None if blk.ell is None else _complex_to_json(blk.ell),
        }
        buses.append(entry)
    return {
        "status": status,
        "objective": float(objective),
        "iterations": int(iterations),
        "buses": buses,
    }


def solution_from_dict(doc: dict) -> dict[int, XBlock]:
    """Every bus's blocks; a malformed document raises KeyError, TypeError
    or ValueError, the last naming the bus and field of a bad number or id,
    or a bus id given twice."""
    solution: dict[int, XBlock] = {}
    for k, entry in enumerate(doc["buses"]):
        i = _integer(entry["id"], f"buses[{k}].id", ValueError)
        if i in solution:
            raise ValueError(f"buses[{k}].id: bus {i} appears twice")
        at = f"bus {i}"
        v = _parse_complex(entry["v"], f"{at} v", ValueError)
        s = _parse_complex(entry["s"], f"{at} s", ValueError)
        S = None if entry.get("S") is None else _parse_complex(entry["S"], f"{at} S", ValueError)
        ell = None if entry.get("l") is None else _parse_complex(entry["l"], f"{at} l", ValueError)
        solution[i] = XBlock(v=v, s=s, S=S, ell=ell)
    return solution


def write_solution(path, solution, model, status, objective, iterations) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(solution, model, status, objective, iterations), fh)
        fh.write("\n")


def read_solution(path) -> dict[int, XBlock]:
    with open(path, "r", encoding="utf-8") as fh:
        return solution_from_dict(json.load(fh))


def write_history_csv(path, history: list[IterationStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for row in history:
            writer.writerow([row.k, repr(row.r), repr(row.s), repr(row.objective)])


def _environment() -> dict:
    """The interpreter, numpy, the BLAS and LAPACK numpy was built
    against (name and version, None where numpy does not say), and the
    CPU count."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        deps = {}
    libs = {
        key: {field: deps.get(key, {}).get(field) for field in ("name", "version")}
        for key in ("blas", "lapack")
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **libs,
        "cpu_count": os.cpu_count(),
    }


def build_manifest(
    model: FeederModel,
    config: SolverConfig,
    result: RunResult,
    exactness_max_ratio: float,
    exactness_threshold: float,
) -> dict:
    last = result.history[-1]
    return {
        "config": {
            "rho": config.rho,
            "tol_scale": config.tol_scale,
            "max_iters": config.max_iters,
        },
        "model_hash": model_hash(model),
        "status": result.status,
        "iterations": len(result.history),
        "wall_time_s": result.wall_seconds,
        "wall_time_per_bus_s": result.wall_seconds / result.n_buses,
        "final_r": last.r,
        "final_s": last.s,
        "objective": last.objective,
        "exactness": {
            "max_ratio": exactness_max_ratio,
            "threshold": exactness_threshold,
            "exact": exactness_max_ratio <= exactness_threshold,
        },
        "environment": _environment(),
    }


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
