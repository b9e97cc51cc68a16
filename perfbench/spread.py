"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload line-1ph --seeds 1-10 --seconds 24
    python3 perfbench/spread.py --workload mixed-der --seeds 1 --trace 1 --out t.json

Runs ``run.py`` once per seed, one after another, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is flagged. ``--out`` also writes the
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record import parse_seeds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py", description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["readout"] = json.loads(lines[-2])["readout"]
        runs.append(result)
        print(
            f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
            f"failed {result['failed']}",
            flush=True,
        )

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        summary[name] = summarize(values) | {"unit": runs[0]["metrics"][name]["unit"], "bound": bounds.get(name)}
        s = summary[name]
        flag = ""
        if s["bound"] is not None and s["spread"] is not None and s["spread"] > s["bound"] / 3:
            flag = "  above a third of the bound"
        print(
            f"{name:40s} median {s['median']:.6g} {s['unit']:9s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
            f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} bound {s['bound']}{flag}"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
