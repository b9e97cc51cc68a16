"""Compare the iterates of the working tree's solver with those of a git revision.

Run from anywhere inside the repository:

    python3 tools/compare_iterates.py [--base REV] [--tol 1e-12]

It exports ``src/radialopf`` at REV (default ``HEAD``) with ``git
archive`` and imports it as the package ``radialopf_base``, beside the
working tree's ``radialopf``. Both solve the same feeder documents with
the default config: perfbench seeds 1-3 of every workload, the feeders of
``tests/data/engine_equivalence.json``, its fat-tree-7-ab with bus 5's
line impedance scaled by 1.5 (three leaves then share a neighborhood
and the fourth, of the same signature, has its own), and the generated
line 10 a, fat-tree 13 abc, fat-tree 15 ab and fat-tree 63 abc, and two
seeded mixed-phase feeders (``trunk_feeder``): a three-phase trunk with
``engine.N_JOIN`` single-phase laterals, whose 2 x 2 blocks join the
trunk's slab, and one with ``N_JOIN + 1``, whose blocks keep their own.
Per feeder it prints the status and the iteration count on both sides, then
``bitwise`` when the residual
histories and the final blocks are equal byte for byte, or else their
largest absolute differences. After that it compares the set-up maps of
the feeder's ``State`` (``MAPS``), among them the y-solver's constraint
rows ``ysolver.a_mat``, a list of per-bus arrays. It prints ``maps
equal`` when every map is equal byte for byte, or ``maps differ:`` and the
names of those that differ, with ``n/a`` after a name that one side lacks
and the largest absolute difference after a map of arrays whose shapes
agree. It exits 1 if a status or an iteration count
differs, or if a difference exceeds ``--tol``, and 2 if REV cannot be
exported; the maps do not change the exit status.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # run as a program, pin the BLAS thread pools before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRUNK = 4  # three-phase buses in a line below the root of ``trunk_feeder``
# the State attributes, dotted through the y-solver, that set-up builds
MAPS = (
    "pair", "obs", "weight", "den", "v_diag", "s_index", "ysolver.offsets", "ysolver.a_mat",
    "messages",
)


def load_package(path: Path, name: str):
    """Import the package whose sources are in ``path`` under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def export_package(rev: str, dest: Path) -> Path:
    """Write ``src/radialopf`` at ``rev`` under ``dest``; return its directory."""
    tar = subprocess.run(
        ["git", "archive", rev, "src/radialopf"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        for member in archive.getmembers():
            if member.isfile():
                target = dest / member.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(archive.extractfile(member).read())
    return dest / "src" / "radialopf"


def feeder_documents(pkg) -> list[tuple[str, str]]:
    """(label, feeder JSON) of every feeder the comparison solves; ``pkg``
    generates the synthetic ones."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    docs = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for k, doc in enumerate(workloads.feeder_documents(workload, seed)):
                docs.append((f"{workload} seed {seed} #{k}", doc))
    records = json.loads((ROOT / "tests" / "data" / "engine_equivalence.json").read_text())
    docs += [(name, json.dumps(record["feeder"])) for name, record in records.items()]
    feeder = records["fat-tree-7-ab"]["feeder"]
    line = next(ln for ln in feeder["lines"] if ln["bus"] == 5)
    line["z"] = [[{"re": 1.5 * e["re"], "im": 1.5 * e["im"]} for e in row] for row in line["z"]]
    docs.append(("fat-tree-7-ab, bus 5's line z 1.5x", json.dumps(feeder)))
    network = pkg.network
    generated = (
        ("line", 10, "a"), ("fat-tree", 13, "abc"), ("fat-tree", 15, "ab"), ("fat-tree", 63, "abc")
    )
    for kind, size, phases in generated:
        model = network.generate_topology(kind, size, network.TopologyTemplate(phases=phases))
        docs.append((f"{kind} {size} {phases}", json.dumps(network.feeder_to_dict(model))))
    for laterals in (pkg.engine.N_JOIN, pkg.engine.N_JOIN + 1):
        docs.append((f"trunk with {laterals} laterals", trunk_feeder(network, laterals, laterals)))
    return docs


def trunk_feeder(network, laterals: int, seed: int) -> str:
    """JSON of a seeded mixed-phase feeder: a three-phase root and a line
    of ``TRUNK`` three-phase buses below it, with ``laterals`` single-phase
    leaves hung off the trunk buses in turn, on phases a, b and c in turn.
    Every load has a fixed p and a small q band, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    loss = network.ObjectiveCoeffs(0.0, 1.0)
    free = network.Box(-math.inf, math.inf, -math.inf, math.inf)
    three = network.PhaseSet("abc")
    buses = [network.BusSpec(0, three, (1.0,) * 3, (1.0,) * 3, (free,) * 3, (loss,) * 3)]
    lines = []
    for i in range(1, TRUNK + laterals + 1):
        phases, parent = ("abc", i - 1) if i <= TRUNK else ("abc"[i % 3], 1 + i % TRUNK)
        template = network.TopologyTemplate(phases=phases)
        m = len(phases)
        p, q = -rng.uniform(0.001, 0.003, m), rng.uniform(0.0005, 0.0015, m)
        loads = tuple(network.Box(pk, pk, -qk, qk) for pk, qk in zip(p, q))
        lo, hi = (template.v_lo,) * m, (template.v_hi,) * m
        buses.append(network.BusSpec(i, network.PhaseSet(phases), lo, hi, loads, (loss,) * m))
        lines.append(network.LineSpec(i, parent, template.impedance()))
    return json.dumps(network.feeder_to_dict(network.FeederModel(tuple(buses), tuple(lines))))


def _solve(pkg, doc: str):
    """(status, history array, final blocks as one array) of a default solve."""
    try:
        result = pkg.run(pkg.loads_feeder(doc))
    except (ValueError, RuntimeError) as exc:
        return f"error: {exc}", np.zeros((0, 4)), np.zeros(0)
    history = np.array([(h.k, h.r, h.s, h.objective) for h in result.history])
    arrays = [a for blk in result.solution.values() for a in (blk.v, blk.s, blk.S, blk.ell)]
    return result.status, history, np.concatenate([a.ravel() for a in arrays if a is not None])


def _maps(pkg, doc: str) -> dict:
    """The ``MAPS`` of the feeder's ``State`` at the default config, by
    name; None for a map the package lacks, or for all of them if the
    feeder does not load."""
    try:
        state = pkg.engine.State(pkg.loads_feeder(doc), pkg.SolverConfig())
    except (ValueError, RuntimeError):
        return dict.fromkeys(MAPS)
    maps = {}
    for name in MAPS:
        value = state
        for attr in name.split("."):
            value = getattr(value, attr, None)
        maps[name] = value
    return maps


def _arrays(value) -> list | None:
    """A map that is an array or a list of arrays, as a list; else None."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, list) and all(isinstance(v, np.ndarray) for v in value):
        return value
    return None


def _difference(a, b) -> str | None:
    """None when two maps are equal, arrays byte for byte; otherwise ``""``,
    or the largest absolute difference of arrays whose shapes agree."""
    xs, ys = _arrays(a), _arrays(b)
    if xs is None or ys is None:
        return None if xs is ys and a == b else ""
    if [(x.dtype, x.shape) for x in xs] != [(y.dtype, y.shape) for y in ys]:
        return ""
    if all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys)):
        return None
    largest = max(float(np.abs(y - x).max(initial=0.0)) for x, y in zip(xs, ys))
    return f" (largest difference {largest:.3e})"


def compare_maps(base, change, doc: str) -> str:
    """``maps equal``, or the names of the ``MAPS`` that differ between
    the packages' set-up of the feeder ``doc``."""
    m0, m1 = _maps(base, doc), _maps(change, doc)
    differ = []
    for name in MAPS:
        if m0[name] is None or m1[name] is None:
            differ.append(f"{name} n/a")
        elif (diff := _difference(m0[name], m1[name])) is not None:
            differ.append(name + diff)
    return "maps differ: " + ", ".join(differ) if differ else "maps equal"


def compare(base, change, docs, tol: float) -> tuple[list[str], bool]:
    """Solve every (label, document) with both packages; return one line
    per feeder and whether all of them agree within ``tol``."""
    lines, ok = [], True
    for label, doc in docs:
        (st0, h0, x0), (st1, h1, x1) = _solve(base, doc), _solve(change, doc)
        line = f"{label}: {st0} {len(h0)} / {st1} {len(h1)}: "
        if st0 != st1 or len(h0) != len(h1):
            ok = False
            line += "status or iterations differ"
        elif h0.tobytes() == h1.tobytes() and x0.tobytes() == x1.tobytes():
            line += "bitwise"
        else:
            dh = float(np.abs(h1 - h0).max(initial=0.0))
            dx = float(np.abs(x1 - x0).max(initial=0.0))
            ok = ok and dh <= tol and dx <= tol
            line += f"history {dh:.3e}, blocks {dx:.3e}"
        lines.append(f"{line}; {compare_maps(base, change, doc)}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--tol", type=float, default=1e-12, help="largest allowed difference")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import radialopf

    with tempfile.TemporaryDirectory() as tmp:
        try:
            src = export_package(args.base, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.base}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        base = load_package(src, "radialopf_base")
        lines, ok = compare(base, radialopf, feeder_documents(radialopf), args.tol)
    print("\n".join(lines))
    print("iterates agree" if ok else "iterates differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
