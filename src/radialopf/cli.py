"""Command-line driver: solve feeders, generate topologies, verify, benchmark.

Exit codes: 0 on success (converged/verified), 2 when the iteration cap was
reached, 3 on a usage error or a validation or verification failure, 4 on I/O
problems, 5 when a solve diverged (a residual became non-finite, or r grew
1e6-fold past both its earlier minimum and the tolerance). ``STATUS_EXIT``
maps a solver status to its code: ``solve`` returns its status's code, and a
benchmark sweep the largest code among its solves. A command that cannot
finish raises, and ``main`` alone prints the ``error: ...`` line and returns
the code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .engine import SolverConfig, SolverError, run
from .network import (
    FeederError,
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
STATUS_EXIT = {"converged": EXIT_OK, "max-iters": EXIT_MAX_ITERS, "diverged": EXIT_DIVERGED}


class _Exit(Exception):
    """A failure that ``main`` reports as ``error: <message>`` and exit ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _io(action: str):
    """Turn an OSError into exit 4 (EXIT_IO), reported as ``action: <error>``."""
    try:
        yield
    except OSError as exc:
        raise _Exit(EXIT_IO, f"{action}: {exc}") from exc


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
    with _io(f"cannot read {path}"):
        try:
            return load_feeder(path)
        except FeederError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def cmd_solve(args) -> int:
    model = _load_model(args.network)
    require_threshold(args.rank_threshold, "rank threshold")
    config = _config(args)
    result = run(model, config)
    last = result.history[-1]
    if result.status == "diverged":
        raise _Exit(
            EXIT_DIVERGED, f"diverged at iteration {last.k}: r {last.r:.3e}, s {last.s:.3e}"
        )

    exact = check_rank1(result.solution, model, args.rank_threshold)
    out_dir = Path(args.out_dir)
    with _io("cannot write artifacts"):
        out_dir.mkdir(parents=True, exist_ok=True)
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

    print(
        f"{result.status}: {len(result.history)} iterations, "
        f"objective {last.objective:.6g}, r {last.r:.3e}, s {last.s:.3e}, "
        f"rank ratio {exact.max_ratio:.3e}"
    )
    return STATUS_EXIT[result.status]


def cmd_generate(args) -> int:
    model = generate_topology(args.kind, args.size, TopologyTemplate(phases=args.phases))
    with _io(f"cannot write {args.out}"):
        dump_feeder(model, args.out)
    print(f"wrote {args.kind} feeder with {args.size} buses to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    kinds = [k for k in args.kinds.split(",") if k]
    sizes = [int(x) for x in args.sizes.split(",") if x]
    config = _config(args)
    if not kinds or not sizes:
        raise ValueError("empty benchmark sweep")
    template = TopologyTemplate(phases=args.phases)
    rows = []
    for kind in kinds:
        for size in sizes:
            result = run(generate_topology(kind, size, template), config)
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
    with _io(f"cannot write {args.out}"), open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    print(f"wrote benchmark table to {args.out}")
    return max(STATUS_EXIT[row[-1]] for row in rows)


def cmd_verify(args) -> int:
    model = _load_model(args.network)
    with _io(f"cannot read {args.solution}"):
        try:
            solution = read_solution(args.solution)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed solution document: {exc}") from exc

    bfm = check_bfm_feasibility(solution, model, args.tol)
    exact = check_rank1(solution, model, args.rank_threshold)
    if args.out:
        with _io(f"cannot write {args.out}"), open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"bfm": bfm.as_dict(), "rank1": exact.as_dict()}, fh, indent=2)
            fh.write("\n")

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
    except _Exit as exc:
        code, message = exc.code, str(exc)
    except (ValueError, SolverError, FeederError) as exc:
        code, message = EXIT_VALIDATION, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
