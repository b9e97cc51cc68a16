"""Record the feeders and objectives that the correctness gate checks.

    python3 perfbench/record.py --seeds 0-19

Solves every workload's feeders (full and quick) for each seed with the
benchmark's configuration and writes ``perfbench/reference.json``: per
workload and seed, each feeder's model hash, objective, objective
tolerance and iteration count. Refuses to record a solve that fails the
gate. Re-record only in a change that is meant to move the solver's
iterates, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record.py", description=__doc__)
    parser.add_argument("--seeds", required=True, help="e.g. 0-19 or 1,2,5")
    args = parser.parse_args()
    run.bootstrap()
    import bench
    from radialopf import network, serialize
    from workloads import WORKLOADS, feeder_documents

    doc = {
        "config": {"rho": bench.RHO, "tol_scale": bench.TOL_SCALE, "mode": "serial"},
        "objective_tolerance": (
            f"objective_tol: the largest one-iteration change of the objective over the "
            f"last {bench.OBJECTIVE_STEPS} iterations of the recorded solve, absolute"
        ),
        "workloads": {},
    }
    for quick in (True, False):
        for workload in WORKLOADS:
            key = f"quick/{workload}" if quick else workload
            for seed in parse_seeds(args.seeds):
                models = [network.loads_feeder(d) for d in feeder_documents(workload, seed, quick)]
                _, results = bench.solve_pass(models)
                entries = []
                for model, result in zip(models, results):
                    bfm = bench.radialopf.check_bfm_feasibility(result.solution, model, tol=bench.BFM_TOL)
                    reasons = bench.gate(model, result, bfm, None)
                    if reasons:
                        print(f"error: {key} seed {seed}: {'; '.join(reasons)}", file=sys.stderr)
                        return 1
                    entries.append(
                        {
                            "model_hash": serialize.model_hash(model),
                            "objective": result.history[-1].objective,
                            "objective_tol": bench.objective_step(result.history),
                            "iters": len(result.history),
                        }
                    )
                doc["workloads"].setdefault(key, {})[str(seed)] = entries
                print(f"{key} seed {seed}: {[e['iters'] for e in entries]}", flush=True)
    with open(bench.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
