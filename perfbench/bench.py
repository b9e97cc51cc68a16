"""Measurement, correctness gate and report of the radialopf benchmark.

Imported by ``run.py`` after it has pinned the BLAS thread pools and put
the sources on the path. Feeders go in and results come out through the
public API of ``radialopf``; the per-layer spans wrap module attributes
from outside (``spans.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

import radialopf
from radialopf import network, serialize, subproblems
from spans import Tracer
from workloads import WORKLOADS, feeder_documents

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

RHO = 1.0
TOL_SCALE = 1e-4
# After every feeder solve the benchmark sets up repeatedly for this share
# of the solve's time, and one set-up sample is the mean over that window.
# The host switches between a fast and a slow state within seconds, and a
# single set-up (20-40 ms) sees only one of them, so the median of single
# set-ups jumped between the two states from run to run.
SETUP_SHARE = 0.15
BFM_TOL = 1e-3
# x0.v is only as close to the clamped voltage copy as the consensus gap.
VOLTAGE_TOL = 1e-3
COMPLEX_BYTES = 16
# Iterations before the stop over which the objective tolerance is taken.
OBJECTIVE_STEPS = 5

ROUNDS = ("engine.x_round", "engine.y_round", "engine.multiplier", "engine.residuals", "engine.objective")
# (owner under radialopf, attribute, span). The owner is a module, or a
# class inside one; the engine resolves all of these at call time.
SPANS = (
    ("engine", "x_update_round", "engine.x_round"),
    ("engine", "y_update_round", "engine.y_round"),
    ("engine", "multiplier_update_round", "engine.multiplier"),
    ("engine", "compute_residuals", "engine.residuals"),
    ("engine", "compute_objective", "engine.objective"),
    ("engine", "initialize", "engine.initialize"),
    ("engine", "validate_radial", "network.validate_radial"),
    ("engine", "complete_square_x0", "subproblems.complete_square"),
    ("engine", "solve_x0_matrix", "subproblems.solve_x0_matrix"),
    ("engine", "project_injection_box", "subproblems.injection_box"),
    ("engine", "project_injection_disk", "subproblems.injection_disk"),
    ("engine", "solve_x1_voltage", "subproblems.x1_voltage"),
    ("subproblems", "psd_project", "hermitian.psd_project"),
    ("subproblems", "solve_disk_multiplier", "subproblems.disk_newton"),
    ("subproblems.YNodeSolver", "__init__", "subproblems.ynode_prefactor"),
    ("subproblems.YNodeSolver", "assemble_c", "subproblems.assemble_c"),
    ("subproblems.YNodeSolver", "solve", "subproblems.ysolve"),
    ("hermitian", "eigh", "hermitian.eigh"),
    ("network", "loads_feeder", "network.loads_feeder"),
    ("network", "validate_radial", "network.validate_radial"),
)

# Per-layer metrics read from the spans: (metric, span, self time?).
# Microseconds per ADMM iteration.
PER_ITER_SPANS = (
    ("hermitian.eigh_us", "hermitian.eigh", False),
    ("hermitian.psd_project_self_us", "hermitian.psd_project", True),
    ("subproblems.solve_x0_matrix_self_us", "subproblems.solve_x0_matrix", True),
    ("engine.x_round_self_us", "engine.x_round", True),
    ("engine.y_round_self_us", "engine.y_round", True),
    ("engine.multiplier_us", "engine.multiplier", False),
    ("engine.residuals_us", "engine.residuals", False),
    ("engine.objective_us", "engine.objective", False),
    ("subproblems.assemble_c_us", "subproblems.assemble_c", False),
    ("subproblems.ysolve_us", "subproblems.ysolve", False),
    ("subproblems.complete_square_us", "subproblems.complete_square", False),
    ("subproblems.injection_box_us", "subproblems.injection_box", False),
    ("subproblems.x1_voltage_us", "subproblems.x1_voltage", False),
    ("subproblems.injection_disk_us", "subproblems.injection_disk", False),
    ("subproblems.disk_newton_us", "subproblems.disk_newton", False),
)
# Milliseconds per solve.
PER_SOLVE_SPANS = (
    ("network.loads_feeder_ms", "network.loads_feeder", False),
    ("network.validate_radial_ms", "network.validate_radial", False),
    ("engine.initialize_self_ms", "engine.initialize", True),
    ("subproblems.ynode_prefactor_ms", "subproblems.ynode_prefactor", False),
)
POST_SOLVE = ("verify.check_bfm_ms", "verify.check_rank1_ms", "serialize.write_artifacts_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny feeders, same schema and checks")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and reference data
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"detail": "unavailable from numpy.show_config"}
    keep = ("name", "version", "openblas configuration")
    return {key: {k: v for k, v in deps.get(key, {}).items() if k in keep} for key in ("blas", "lapack")}


def environment(blas_threads: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "radialopf": radialopf.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads_set": blas_threads,
    }


def reference_entries(workload: str, seed: int, quick: bool):
    """Recorded feeders of this workload and seed, or None if not recorded."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        doc = json.load(fh)
    key = f"quick/{workload}" if quick else workload
    return doc["workloads"].get(key, {}).get(str(seed))


# ---------------------------------------------------------------------------
# per-solve correctness gate
# ---------------------------------------------------------------------------


def tree_edges(model) -> set[tuple[int, int]]:
    return {(ln.bus, ln.parent) for ln in model.lines} | {(ln.parent, ln.bus) for ln in model.lines}


def gate(model, result, bfm, reference) -> list[str]:
    """Reasons this solve fails; empty when it passes.

    ``reference`` is the recorded feeder entry (hash, objective and its
    tolerance) or None for a seed without one.
    """
    reasons = []
    if result.status != "converged":
        reasons.append(f"status {result.status}")
    if not bfm.ok:
        reasons.append(f"branch-flow residual {bfm.max_residual:.3e} > {BFM_TOL:g}")
    for bus in model.buses:
        if bus.id == 0:
            continue
        diag = result.solution[bus.id].v.diagonal().real
        lo = np.asarray(bus.v_lo) - VOLTAGE_TOL
        hi = np.asarray(bus.v_hi) + VOLTAGE_TOL
        if np.any(diag < lo) or np.any(diag > hi):
            reasons.append(f"bus {bus.id}: voltage {diag.tolist()} outside bounds")
    if reference is not None:
        objective = result.history[-1].objective
        allowed = reference["objective_tol"]
        if abs(objective - reference["objective"]) > allowed:
            reasons.append(
                f"objective {objective!r} differs from recorded "
                f"{reference['objective']!r} by more than {allowed:.2e}"
            )
    if result.message_pairs is not None:
        stray = result.message_pairs - tree_edges(model)
        if stray:
            reasons.append(f"messages off tree edges: {sorted(stray)}")
    return reasons


class Tally:
    """Solves attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: " + "; ".join(reasons))


def objective_step(history) -> float:
    """Largest one-iteration change of the objective over the last iterations.

    It is the gate's objective tolerance: a solve whose stop moves by one
    iteration from the recorded one still passes. At the stopping threshold
    the objective still moves by 7e-8 to 1.2e-4 per iteration on these
    feeders, so one fixed tolerance would be loose for some and tight for
    others; a solve stopped 300 iterations early is off by 16 or more steps.
    """
    tail = [h.objective for h in history[-OBJECTIVE_STEPS - 1 :]]
    return max(abs(b - a) for a, b in zip(tail, tail[1:]))


def history_key(result) -> list[tuple]:
    return [(h.k, h.r, h.s, h.objective) for h in result.history]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def solve_config(max_iters: int | None = None) -> radialopf.SolverConfig:
    if max_iters is None:
        return radialopf.SolverConfig(rho=RHO, tol_scale=TOL_SCALE)
    return radialopf.SolverConfig(rho=RHO, tol_scale=TOL_SCALE, max_iters=max_iters)


def solve_pass(models, record_messages: bool = False, between=None):
    """Solve every feeder once; returns (wall seconds of the run calls, results).

    ``between`` is called with each solve's seconds after it, outside the
    timed part.
    """
    config = solve_config()
    seconds = 0.0
    results = []
    for model in models:
        t0 = time.perf_counter()
        result = radialopf.run(model, config, record_messages=record_messages)
        seconds_one = time.perf_counter() - t0
        seconds += seconds_one
        results.append(result)
        if between is not None:
            between(seconds_one)
    return seconds, results


class Workload:
    """One workload's feeders for one seed, with the recorded references."""

    def __init__(self, name: str, seed: int, quick: bool):
        self.docs = feeder_documents(name, seed, quick)
        self.models = [network.loads_feeder(doc) for doc in self.docs]
        self.hashes = [serialize.model_hash(m) for m in self.models]
        recorded = reference_entries(name, seed, quick)
        self.recorded = recorded is not None
        self.identity_ok = recorded is None or [e["model_hash"] for e in recorded] == self.hashes
        if recorded is not None and self.identity_ok:
            self.references = recorded
        else:
            self.references = [None] * len(self.models)
        self.first_histories: list | None = None

    def check(self, tally: Tally, results, bfms, tag: str) -> None:
        """Gate every solve of one pass, including determinism across passes."""
        histories = [history_key(r) for r in results]
        if self.first_histories is None:
            self.first_histories = histories
        for i, (model, result, bfm) in enumerate(zip(self.models, results, bfms)):
            reasons = gate(model, result, bfm, self.references[i])
            if not self.identity_ok:
                reasons.append("feeder differs from the recorded one (model hash)")
            if histories[i] != self.first_histories[i]:
                reasons.append("history differs from the first pass")
            tally.add(f"{tag} feeder {i}", reasons)

    def readout(self, results) -> list[dict]:
        out = []
        for i, (model, result) in enumerate(zip(self.models, results)):
            rank = radialopf.check_rank1(result.solution, model)
            out.append(
                {
                    "model_hash": self.hashes[i],
                    "buses": len(model),
                    "phases": [b.phases.letters for b in model.buses],
                    "iters": len(result.history),
                    "status": result.status,
                    "objective": result.history[-1].objective,
                    "objective_checked": self.references[i] is not None,
                    "rank1_max_ratio": rank.max_ratio,
                }
            )
        return out


def bfm_reports(models, results):
    return [radialopf.check_bfm_feasibility(r.solution, m, tol=BFM_TOL) for m, r in zip(models, results)]


def measure_setup(docs, window: float, samples: list[float]) -> None:
    """Feeder document to first iterate, summed over the feeders.

    Repeats the set-up for ``window`` seconds, at least once, and appends
    the mean time of one set-up to ``samples``.
    """
    one = solve_config(max_iters=1)
    repeats = 0
    t0 = time.perf_counter()
    while True:
        for doc in docs:
            radialopf.run(network.loads_feeder(doc), one)
        repeats += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= window:
            break
    samples.append(elapsed / repeats)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl: Workload, seconds: float, tally: Tally):
    start = time.perf_counter()
    setup: list[float] = []
    pass_seconds = []
    while True:
        elapsed, results = solve_pass(
            wl.models, between=lambda solved: measure_setup(wl.docs, SETUP_SHARE * solved, setup)
        )
        pass_seconds.append(elapsed)
        wl.check(tally, results, bfm_reports(wl.models, results), f"pass {len(pass_seconds)}")
        if time.perf_counter() - start + elapsed > seconds:
            break
    iters = sum(len(r.history) for r in results)
    bus_iters = sum(len(r.history) * len(m) for r, m in zip(results, wl.models))
    solve_s = statistics.median(pass_seconds)
    metrics = {
        "solve_s": (solve_s, "s"),
        "iters": (iters, "count"),
        "bus_iter_us": (solve_s / bus_iters * 1e6, "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    readout = {
        "pass_seconds": pass_seconds,
        "setup_seconds": setup,
        "feeders": wl.readout(results),
    }
    return metrics, readout


def install(tracer: Tracer) -> None:
    """Wrap every span in SPANS; a module, class or function gone is absent."""
    disk_case = getattr(subproblems, "disk_case", None)
    counts = tracer.counts

    def classify(a1, b1, a2, b2, c):
        counts[f"disk_case{disk_case(a1, b1, a2, b2, c)}"] += 1

    for owner_path, attr, span in SPANS:
        module, _, cls = owner_path.partition(".")
        try:
            owner = importlib.import_module(f"radialopf.{module}")
        except ModuleNotFoundError:
            owner = None
        if cls:
            owner = getattr(owner, cls, None)
        before = classify if span == "subproblems.injection_disk" and disk_case else None
        tracer.wrap(owner, attr, span, before=before)


def message_load(model) -> tuple[int, int]:
    """Messages and payload bytes per iteration, computed from the topology.

    Per tree edge and iteration: the child's voltage observation (v, mu)
    of the parent and the parent's flow observation (S, ell, mu_S, mu_ell)
    before the x-step, then the child's (S, ell) and the parent's v before
    the y-step.
    """
    msgs = 0
    payload = 0
    for ln in model.lines:
        mc = len(model.bus(ln.bus).phases)
        mp = len(model.bus(ln.parent).phases)
        msgs += 4
        payload += COMPLEX_BYTES * (3 * mp * mp + 6 * mc * mc)
    return msgs, payload


def write_artifacts(out_dir: Path, model, result, rank) -> None:
    """The files the ``solve`` command writes, in the same way."""
    last = result.history[-1]
    serialize.write_solution(
        out_dir / "solution.json", result.solution, model, result.status, last.objective, len(result.history)
    )
    serialize.write_history_csv(out_dir / "iterations.csv", result.history)
    manifest = serialize.build_manifest(model, solve_config(), result, rank.max_ratio, rank.threshold)
    serialize.write_manifest(out_dir / "manifest.json", manifest)


def traced_pass(wl: Workload, tracer: Tracer, post: dict, out_dir: Path):
    """Load and solve every feeder under the tracer; time the post-solve path."""
    config = solve_config()
    seconds = 0.0
    results = []
    slices = []
    bfms = []
    with tracer:
        install(tracer)
        for doc in wl.docs:
            model = network.loads_feeder(doc)
            lo = len(tracer.kept)
            t0 = time.perf_counter()
            result = radialopf.run(model, config, record_messages=True)
            seconds += time.perf_counter() - t0
            slices.append((lo, len(tracer.kept)))
            results.append(result)
    for model, result in zip(wl.models, results):
        t0 = time.perf_counter()
        bfms.append(radialopf.check_bfm_feasibility(result.solution, model, tol=BFM_TOL))
        t1 = time.perf_counter()
        rank = radialopf.check_rank1(result.solution, model)
        t2 = time.perf_counter()
        write_artifacts(out_dir, model, result, rank)
        t3 = time.perf_counter()
        post["verify.check_bfm_ms"] += t1 - t0
        post["verify.check_rank1_ms"] += t2 - t1
        post["serialize.write_artifacts_ms"] += t3 - t2
    return seconds, results, slices, bfms


def iteration_times(tracer: Tracer, slices) -> tuple[list[float], float, float]:
    """Per-iteration wall times (ms), loop seconds and round-span seconds.

    An iteration runs from one x-round start to the next; the last one ends
    with its objective span.
    """
    samples: list[float] = []
    loop = 0.0
    rounds = 0.0
    for lo, hi in slices:
        spans = tracer.kept[lo:hi]
        starts = [s for name, s, _ in spans if name == "engine.x_round"]
        if not starts:
            continue
        end = max(e for _, _, e in spans)
        samples += [(b - a) * 1e3 for a, b in zip(starts, starts[1:] + [end])]
        loop += end - starts[0]
        rounds += sum(e - s for _, s, e in spans)
    return samples, loop, rounds


def per_layer(wl: Workload, seconds: float, tally: Tally):
    tracer = Tracer(keep=ROUNDS)
    post = dict.fromkeys(POST_SOLVE, 0.0)
    untraced, traced = [], []
    slices = []
    iters = 0
    solves = 0
    msgs = 0
    payload = 0
    fidelity = True
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        while True:
            plain_s, plain = solve_pass(wl.models)
            untraced.append(plain_s)
            wl.check(tally, plain, bfm_reports(wl.models, plain), f"untraced pass {len(untraced)}")
            traced_s, results, pass_slices, bfms = traced_pass(wl, tracer, post, Path(tmp))
            traced.append(traced_s)
            slices += pass_slices
            wl.check(tally, results, bfms, f"traced pass {len(traced)}")
            for model, a, b in zip(wl.models, plain, results):
                if history_key(a) != history_key(b):
                    fidelity = False
                    tally.reasons.append("traced history differs from untraced")
                k = len(b.history)
                iters += k
                solves += 1
                m, p = message_load(model)
                msgs += m * k
                payload += p * k
            if time.perf_counter() - start + plain_s + traced_s > seconds:
                break

    metrics = {}
    for metric, span, own in PER_ITER_SPANS:
        value = tracer.self_time(span) if own else tracer.total(span)
        if value is not None:
            metrics[metric] = (value / iters * 1e6, "us/iter")
    for metric, span, own in PER_SOLVE_SPANS:
        value = tracer.self_time(span) if own else tracer.total(span)
        if value is not None:
            metrics[metric] = (value / solves * 1e3, "ms/solve")
    for metric in POST_SOLVE:
        metrics[metric] = (post[metric] / solves * 1e3, "ms/solve")

    samples, loop, rounds = iteration_times(tracer, slices)
    if samples:
        metrics["engine.loop_other_us"] = ((loop - rounds) / iters * 1e6, "us/iter")
        pct = statistics.quantiles(samples, n=100, method="inclusive")
        metrics["iter_p50_ms"] = (statistics.median(samples), "ms")
        metrics["iter_p99_ms"] = (pct[98], "ms")
        metrics["iter_samples"] = (len(samples), "count")

    if tracer.calls("hermitian.eigh") is not None:
        metrics["count.eigh"] = (tracer.calls("hermitian.eigh") / iters, "1/iter")
    if "subproblems.injection_disk" in tracer.stats and getattr(subproblems, "disk_case", None):
        for case in (1, 2, 3):
            metrics[f"count.disk_case{case}"] = (tracer.counts[f"disk_case{case}"] / iters, "1/iter")
    if tracer.calls("subproblems.disk_newton") is not None:
        metrics["count.newton"] = (tracer.calls("subproblems.disk_newton") / iters, "1/iter")
    metrics["engine.msgs"] = (msgs / iters, "msgs/iter")
    metrics["engine.msg_bytes"] = (payload / iters, "B/iter")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")

    readout = {
        "untraced_pass_seconds": untraced,
        "traced_pass_seconds": traced,
        "traced_iters": iters,
        "traced_solves": solves,
        "history_bitwise_equal": fidelity,
        "absent_spans": tracer.absent,
        "msgs_note": "engine.msgs and engine.msg_bytes are computed from topology and payload shapes",
        "feeders": wl.readout(results),
    }
    return metrics, readout, fidelity


def main(argv, blas_threads: dict) -> int:
    args = parse_args(argv)
    wl = Workload(args.workload, args.seed, args.quick)
    tally = Tally()
    fidelity = True
    if args.trace:
        metrics, readout, fidelity = per_layer(wl, args.seconds, tally)
    else:
        metrics, readout = end_to_end(wl, args.seconds, tally)
    readout = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "config": {"rho": RHO, "tol_scale": TOL_SCALE, "mode": "serial"},
        "recorded_seed": wl.recorded,
        "inputs_match_record": wl.identity_ok,
        "failures": tally.reasons,
        "environment": environment(blas_threads),
        **readout,
    }
    print(json.dumps({"readout": readout}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and fidelity and wl.identity_ok,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0
