"""Independent correctness checks on solver output.

Nothing here shares code with the iteration itself: feasibility is
re-evaluated from the raw branch-flow equations, exactness is measured
through singular-value ratios of the per-line blocks. The reference
optimum the tests hold the solver to, a central OPF on phasors, lives
in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import FeederModel, phase_lift, phase_project
from .subproblems import XBlock

__all__ = [
    "BfmReport",
    "ExactnessReport",
    "check_bfm_feasibility",
    "check_rank1",
    "require_threshold",
]


def require_threshold(value: float, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number >= 0."""
    if not (0.0 <= value < math.inf):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class BfmReport:
    """Per-bus branch-flow residuals in the infinity norm; a non-finite
    residual is a violation and makes ``max_residual`` non-finite."""

    voltage_drop: dict[int, float]
    power_balance: dict[int, float]
    tol: float

    @property
    def max_residual(self) -> float:
        residuals = [*self.voltage_drop.values(), *self.power_balance.values()]
        return float(np.max(residuals, initial=0.0))  # NaN propagates

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol

    def violations(self) -> list[str]:
        out = []
        for i, res in sorted(self.voltage_drop.items()):
            if not res <= self.tol:
                out.append(f"bus {i}: voltage-drop residual {res:.3e}")
        for i, res in sorted(self.power_balance.items()):
            if not res <= self.tol:
                out.append(f"bus {i}: power-balance residual {res:.3e}")
        return out

    def as_dict(self) -> dict:
        return {
            "tol": self.tol,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "voltage_drop": {str(i): r for i, r in sorted(self.voltage_drop.items())},
            "power_balance": {str(i): r for i, r in sorted(self.power_balance.items())},
        }


def check_bfm_feasibility(
    solution: dict[int, XBlock], model: FeederModel, tol: float = 1e-3
) -> BfmReport:
    """Evaluate both branch-flow equations on a candidate solution, which
    must hold every bus of the feeder and no other."""
    require_threshold(tol, "tol")
    by_id, lines = model.by_id, model.line
    for i in solution:
        if i not in by_id:
            raise ValueError(f"solution has bus {i}, which the feeder does not have")
    for b in model.buses:
        blk = solution.get(b.id)
        if blk is None:
            raise ValueError(f"solution missing bus {b.id}")
        n = len(b.phases)
        if blk.v.shape != (n, n) or blk.s.shape != (n,):
            raise ValueError(f"bus {b.id}: solution shape mismatch")
        if b.id in lines and (blk.S is None or blk.ell is None):
            raise ValueError(f"bus {b.id}: missing branch variables")
        if b.id in lines and (blk.S.shape != (n, n) or blk.ell.shape != (n, n)):
            raise ValueError(f"bus {b.id}: solution shape mismatch")

    vd: dict[int, float] = {}
    pb: dict[int, float] = {}
    for b in model.buses:
        blk = solution[b.id]
        if b.id in lines:
            ln = lines[b.id]
            parent = by_id[ln.parent]
            z = ln.z
            drop = phase_project(solution[parent.id].v, parent.phases, b.phases) - (
                blk.v
                - z @ blk.S.conj().T
                - blk.S @ z.conj().T
                + z @ blk.ell @ z.conj().T
            )
            vd[b.id] = float(np.max(np.abs(drop)))
        acc = np.zeros(len(b.phases), dtype=complex)
        for j in model.children[b.id]:
            child = by_id[j]
            zc = lines[j].z
            flow = solution[j].S - zc @ solution[j].ell
            acc += phase_lift(flow, child.phases, b.phases).diagonal()
        if b.id in lines:
            acc -= blk.S.diagonal()
        pb[b.id] = float(np.max(np.abs(blk.s + acc)))
    return BfmReport(vd, pb, tol)


@dataclass(frozen=True)
class ExactnessReport:
    """Second-to-first singular value ratio of every per-line block, NaN
    for a non-finite block; ``max_ratio`` propagates a NaN."""

    ratios: dict[int, float]
    threshold: float

    @property
    def max_ratio(self) -> float:
        return float(np.max(list(self.ratios.values()), initial=0.0))

    @property
    def exact(self) -> bool:
        return self.max_ratio <= self.threshold

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "exact": self.exact,
            "max_ratio": self.max_ratio,
            "ratios": {str(i): r for i, r in sorted(self.ratios.items())},
        }


def check_rank1(
    solution: dict[int, XBlock], model: FeederModel, threshold: float = 1e-2
) -> ExactnessReport:
    """Measure how far each line block is from rank one."""
    require_threshold(threshold, "rank threshold")
    ratios: dict[int, float] = {}
    for ln in model.lines:
        blk = solution[ln.bus]
        m = blk.v.shape[0]
        block = np.empty((2 * m, 2 * m), dtype=complex)
        block[:m, :m] = blk.v
        block[:m, m:] = blk.S
        block[m:, :m] = blk.S.conj().T
        block[m:, m:] = blk.ell
        if not np.isfinite(block).all():  # the SVD may not converge on it
            ratios[ln.bus] = math.nan
            continue
        sv = np.linalg.svd(block, compute_uv=False)
        ratios[ln.bus] = float(sv[1] / sv[0]) if sv[0] > 1e-300 else 0.0
    return ExactnessReport(ratios, threshold)
