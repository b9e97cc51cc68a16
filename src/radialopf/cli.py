"""Command-line driver: solve feeders, generate topologies, verify, benchmark.

Exit codes: 0 on success (converged/verified), 2 when the iteration cap was
reached, 3 on a usage error or a validation or verification failure, 4 on I/O
problems, 5 when a solve diverged (a residual became non-finite, or r grew
1e6-fold past both its earlier minimum and the tolerance). A benchmark sweep
returns 5 if any of its solves diverged, else 2 if any hit the cap.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .engine import SolverConfig, SolverError, run
from .network import (
    FeederError,
    FeederValidationError,
    TopologyTemplate,
    dump_feeder,
    generate_topology,
    load_feeder,
)
from .serialize import (
    BENCH_HEADER,
    build_manifest,
    read_solution,
    write_history_csv,
    write_manifest,
    write_solution,
)
from .verify import check_bfm_feasibility, check_rank1, require_threshold

EXIT_OK = 0
EXIT_MAX_ITERS = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_DIVERGED = 5


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (EXIT_VALIDATION), not argparse's 2 (EXIT_MAX_ITERS)."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho", type=float, default=1.0, help="ADMM penalty weight")
    parser.add_argument(
        "--tol", type=float, default=1e-4, help="residual tolerance scale (times sqrt(buses))"
    )
    parser.add_argument("--max-iters", type=int, default=20000)


def _config(args) -> SolverConfig:
    return SolverConfig(rho=args.rho, tol_scale=args.tol, max_iters=args.max_iters)


def _load_model(path: str):
    try:
        return load_feeder(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    except FeederError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def cmd_solve(args) -> int:
    model = _load_model(args.network)
    try:
        require_threshold(args.rank_threshold, "rank threshold")
        config = _config(args)
        result = run(model, config)
    except (SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if result.status == "diverged":
        last = result.history[-1]
        print(
            f"error: diverged at iteration {last.k}: r {last.r:.3e}, s {last.s:.3e}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED

    exact = check_rank1(result.solution, model, args.rank_threshold)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        last = result.history[-1]
        write_solution(
            out_dir / "solution.json",
            result.solution,
            model,
            result.status,
            last.objective,
            len(result.history),
        )
        write_history_csv(out_dir / "iterations.csv", result.history)
        manifest = build_manifest(
            model, config, result, exact.max_ratio, exact.threshold
        )
        write_manifest(out_dir / "manifest.json", manifest)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_IO

    last = result.history[-1]
    print(
        f"{result.status}: {len(result.history)} iterations, "
        f"objective {last.objective:.6g}, r {last.r:.3e}, s {last.s:.3e}, "
        f"rank ratio {exact.max_ratio:.3e}"
    )
    return EXIT_OK if result.converged else EXIT_MAX_ITERS


def cmd_generate(args) -> int:
    template = TopologyTemplate(phases=args.phases)
    try:
        model = generate_topology(args.kind, args.size, template)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        dump_feeder(model, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.kind} feeder with {args.size} buses to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    kinds = [k for k in args.kinds.split(",") if k]
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x]
        config = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if not kinds or not sizes:
        print("error: empty benchmark sweep", file=sys.stderr)
        return EXIT_VALIDATION
    template = TopologyTemplate(phases=args.phases)
    rows = []
    for kind in kinds:
        for size in sizes:
            try:
                model = generate_topology(kind, size, template)
                result = run(model, config)
            except (SolverError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_VALIDATION
            rows.append(
                [
                    kind,
                    size,
                    len(result.history),
                    repr(result.wall_seconds),
                    repr(result.wall_seconds / result.n_buses),
                    result.status,
                ]
            )
            print(
                f"{kind} size {size}: {result.status} in "
                f"{len(result.history)} iterations ({result.wall_seconds:.2f}s)"
            )
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(BENCH_HEADER)
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote benchmark table to {args.out}")
    statuses = {row[-1] for row in rows}
    if "diverged" in statuses:
        return EXIT_DIVERGED
    if "max-iters" in statuses:
        return EXIT_MAX_ITERS
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args.network)
    try:
        solution = read_solution(args.solution)
    except OSError as exc:
        print(f"error: cannot read {args.solution}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed solution document: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        bfm = check_bfm_feasibility(solution, model, args.tol)
        exact = check_rank1(solution, model, args.rank_threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.out:
        import json

        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"bfm": bfm.as_dict(), "rank1": exact.as_dict()}, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO

    print(f"branch-flow residuals (tol {args.tol:g}): max {bfm.max_residual:.3e}")
    for line in bfm.violations():
        print(f"  FAIL {line}")
    print(
        f"rank-1 exactness (threshold {exact.threshold:g}): "
        f"max ratio {exact.max_ratio:.3e}"
    )
    if bfm.ok and exact.exact:
        print("verdict: pass")
        return EXIT_OK
    print("verdict: fail")
    return EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _Parser(
        prog="radialopf",
        description="Distributed OPF on unbalanced radial feeders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a feeder and write artifacts")
    p_solve.add_argument("--network", required=True)
    _solver_flags(p_solve)
    p_solve.add_argument("--out-dir", default=".")
    p_solve.add_argument("--rank-threshold", type=float, default=1e-2)
    p_solve.set_defaults(fn=cmd_solve)

    p_gen = sub.add_parser("generate", help="write a synthetic feeder")
    p_gen.add_argument("--kind", choices=["line", "fat-tree"], required=True)
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--phases", default="a")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_generate)

    p_bench = sub.add_parser("bench", help="convergence sweep over topologies")
    p_bench.add_argument("--kinds", default="line,fat-tree")
    p_bench.add_argument("--sizes", default="5,10,15,20,25,30")
    p_bench.add_argument("--phases", default="a")
    _solver_flags(p_bench)
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(fn=cmd_bench)

    p_verify = sub.add_parser("verify", help="check a solution against a feeder")
    p_verify.add_argument("--solution", required=True)
    p_verify.add_argument("--network", required=True)
    p_verify.add_argument("--tol", type=float, default=1e-3)
    p_verify.add_argument("--rank-threshold", type=float, default=1e-2)
    p_verify.add_argument("--out", default=None, help="also write the report as JSON")
    p_verify.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except FeederValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
