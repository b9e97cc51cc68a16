"""Independent correctness checks on solver output.

Nothing here shares code with the iteration itself: feasibility is
re-evaluated from the raw branch-flow equations, exactness is measured
through singular-value ratios of the per-line blocks, and tiny networks
get a brute-force scan of the original (non-relaxed) problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Box, Disk, FeederModel, phase_lift, phase_project
from .subproblems import XBlock

__all__ = [
    "BfmReport",
    "ExactnessReport",
    "check_bfm_feasibility",
    "check_rank1",
    "brute_force_opf",
]


@dataclass(frozen=True)
class BfmReport:
    """Per-bus branch-flow residuals in the infinity norm."""

    voltage_drop: dict[int, float]
    power_balance: dict[int, float]
    tol: float

    @property
    def max_residual(self) -> float:
        return max(
            max(self.voltage_drop.values(), default=0.0),
            max(self.power_balance.values(), default=0.0),
        )

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol

    def violations(self) -> list[str]:
        out = []
        for i, res in sorted(self.voltage_drop.items()):
            if res > self.tol:
                out.append(f"bus {i}: voltage-drop residual {res:.3e}")
        for i, res in sorted(self.power_balance.items()):
            if res > self.tol:
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
    by_id = {b.id: b for b in model.buses}
    lines = {ln.bus: ln for ln in model.lines}
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
    """Second-to-first singular value ratio of every per-line block."""

    ratios: dict[int, float]
    threshold: float

    @property
    def max_ratio(self) -> float:
        return max(self.ratios.values(), default=0.0)

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
    ratios: dict[int, float] = {}
    for ln in model.lines:
        blk = solution[ln.bus]
        m = blk.v.shape[0]
        block = np.empty((2 * m, 2 * m), dtype=complex)
        block[:m, :m] = blk.v
        block[:m, m:] = blk.S
        block[m:, :m] = blk.S.conj().T
        block[m:, m:] = blk.ell
        sv = np.linalg.svd(block, compute_uv=False)
        ratios[ln.bus] = float(sv[1] / sv[0]) if sv[0] > 1e-300 else 0.0
    return ExactnessReport(ratios, threshold)


# ---------------------------------------------------------------------------
# brute-force reference for the 2-bus single-phase family
# ---------------------------------------------------------------------------


def _solve_physical_flow(v0: float, z: complex, s1: complex):
    """Exact single-phase flow: given the child injection, recover (v1, ell).

    With S = s1 at the leaf, rank-one flow satisfies
    |z|^2 ell^2 - (v0 + 2 Re(conj(z) S)) ell + |S|^2 = 0; the physical
    branch is the smaller ell root. Returns None when no real solution
    exists.
    """
    s_line = s1
    w = v0 + 2.0 * (np.conj(z) * s_line).real
    zsq = abs(z) ** 2
    ssq = abs(s_line) ** 2
    if zsq < 1e-300:
        if v0 <= 0:
            return None
        ell = ssq / v0
        return v0, ell
    disc = w * w - 4.0 * zsq * ssq
    if disc < 0:
        return None
    ell = (w - math.sqrt(disc)) / (2.0 * zsq)
    v1 = w - zsq * ell
    if v1 <= 0 or ell < 0:
        return None
    return v1, ell


def _region_grid(region, step: float):
    if isinstance(region, Box):
        for b in (region.p_lo, region.p_hi, region.q_lo, region.q_hi):
            if not math.isfinite(b):
                raise ValueError("brute force needs a bounded child region")
        ps = np.arange(region.p_lo, region.p_hi + step * 0.5, step)
        qs = np.arange(region.q_lo, region.q_hi + step * 0.5, step)
        return [(p, q) for p in ps for q in qs]
    if isinstance(region, Disk):
        c = region.s_max
        ps = np.arange(0.0, c + step * 0.5, step)
        out = []
        for p in ps:
            for q in np.arange(-c, c + step * 0.5, step):
                if p * p + q * q <= c * c:
                    out.append((p, q))
        return out
    raise ValueError(f"unsupported region {region!r}")


def brute_force_opf(model: FeederModel, grid_step: float = 1e-3):
    """Grid scan of the original problem on a 2-bus single-phase feeder.

    Enumerates the child injection region, solves the exact power flow
    for each candidate, rejects infeasible voltages, and returns
    (best objective, best child injection).
    """
    if len(model.buses) != 2 or len(model.lines) != 1:
        raise ValueError("brute force supports exactly 2 buses")
    root = model.bus(0)
    ln = model.lines[0]
    child = model.bus(ln.bus)
    if len(root.phases) != 1 or len(child.phases) != 1:
        raise ValueError("brute force supports single-phase feeders")

    v0 = root.v_lo[0]
    z = complex(ln.z[0, 0])
    best = None
    best_s = None
    for p, q in _region_grid(child.regions[0], grid_step):
        flow = _solve_physical_flow(v0, z, complex(p, q))
        if flow is None:
            continue
        v1, ell = flow
        if not (child.v_lo[0] - 1e-12 <= v1 <= child.v_hi[0] + 1e-12):
            continue
        s0 = -complex(p, q) + z * ell
        if not root.regions[0].contains(s0.real, s0.imag, tol=1e-12):
            continue
        obj = child.cost[0].value(p) + root.cost[0].value(s0.real)
        if best is None or obj < best:
            best = obj
            best_s = complex(p, q)
    if best is None:
        raise ValueError("no feasible grid point")
    return best, best_s
