"""A central optimal power flow on phasors: the reference optimum that
the tests hold the solver to.

It shares no code with the engine: no branch-flow variables, no
relaxation and no ADMM. It solves the original, non-convex problem.

- The variables are the free coordinates of every non-root phase's
  injection: a box phase's p and q where lo < hi, and a half-disk
  phase's injection in polar form, (r, theta) in [0, s_max] x
  [-pi/2, pi/2] with p = r cos(theta) and q = r sin(theta). So both
  region kinds are box-bounded.
- A backward/forward sweep solves the power flow from the root, pinned
  at sqrt(v_lo) at 0, -120 and 120 degrees on its phases.
- L-BFGS-B minimizes the sum of every phase's cost, the root's p taken
  from the flow.

The search ignores the voltage bounds, so its result is the optimum
only where none of them binds. ``oracle_opf`` raises ``ValueError``
where one binds or is violated at its optimum, where the root's region
is bounded or its voltage is not fixed, and where the sweep does not
converge.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from radialopf.network import Box, FeederModel
from radialopf.subproblems import XBlock

ANGLES = {"a": 0.0, "b": -2.0 * math.pi / 3.0, "c": 2.0 * math.pi / 3.0}
SWEEP_TOL = 1e-15  # largest voltage change of the last sweep, per unit
MAX_SWEEPS = 200
SCALE = 1e3  # objective scale for L-BFGS-B


def oracle_opf(model: FeederModel):
    """``(objective, solution)`` at the optimum of ``model``'s OPF. The
    solution holds rank-1 blocks in the engine's convention: v = V V^H,
    S = V I^H and ell = I I^H, where I is the current from the bus toward
    its parent, so that V_parent[phases] = V - z I."""
    root = model.bus(0)
    if root.v_lo != root.v_hi:
        raise ValueError("the root's voltage is not fixed")
    for r in root.regions:
        if not isinstance(r, Box) or any(
            math.isfinite(b) for b in (r.p_lo, r.p_hi, r.q_lo, r.q_hi)
        ):
            raise ValueError("the root's region is bounded")
    v0 = np.sqrt(root.v_lo) * np.exp(1j * np.array([ANGLES[ch] for ch in root.phases]))

    order = [0]
    for i in order:
        order.extend(model.children[i])
    buses = [model.bus(i) for i in order[1:]]
    line = model.line
    idx = {b.id: np.array(b.phases.indices_in(model.bus(line[b.id].parent).phases)) for b in buses}
    flat_start = {b.id: v0[b.phases.indices_in(root.phases)] for b in [root, *buses]}
    start = np.cumsum([0] + [len(b.phases) for b in buses])
    part = {b.id: slice(start[k], start[k + 1]) for k, b in enumerate(buses)}
    alpha = np.array([c.alpha for b in [root, *buses] for c in b.cost])
    beta = np.array([c.beta for b in [root, *buses] for c in b.cost])

    # the injections as fixed parts plus free coordinates x[col]
    fixed = np.zeros(start[-1], dtype=complex)
    p_at, p_col, q_at, q_col, d_at, d_col, bounds = [], [], [], [], [], [], []
    f = 0
    for b in buses:
        for r in b.regions:
            if isinstance(r, Box):
                for at, col, unit, lo, hi in (
                    (p_at, p_col, 1.0, r.p_lo, r.p_hi),
                    (q_at, q_col, 1j, r.q_lo, r.q_hi),
                ):
                    if lo < hi:
                        at.append(f)
                        col.append(len(bounds))
                        bounds.append((lo, hi))
                    else:
                        fixed[f] += unit * lo
            else:
                d_at.append(f)
                d_col.append(len(bounds))
                bounds += [(0.0, r.s_max), (-0.5 * math.pi, 0.5 * math.pi)]
            f += 1
    d_col = np.array(d_col, dtype=int)

    def injections(x):
        s = fixed.copy()
        s[p_at] += x[p_col]
        s[q_at] += 1j * x[q_col]
        s[d_at] += x[d_col] * np.exp(1j * x[d_col + 1])
        return s

    def flow(s):
        """Bus voltages V and currents I toward the parent, and the root's
        injection."""
        V = dict(flat_start)
        with np.errstate(all="ignore"):
            for _ in range(MAX_SWEEPS):
                I = {}
                for b in reversed(buses):
                    cur = np.conj(s[part[b.id]] / V[b.id])
                    for j in model.children[b.id]:
                        cur[idx[j]] += I[j]
                    I[b.id] = cur
                step = 0.0
                for b in buses:
                    new = V[line[b.id].parent][idx[b.id]] + line[b.id].z @ I[b.id]
                    step = max(step, float(np.max(np.abs(new - V[b.id]))))
                    V[b.id] = new
                if not step > SWEEP_TOL:  # converged, or NaN
                    break
        if not step <= SWEEP_TOL:
            raise ValueError("the power-flow sweep did not converge")
        into = np.zeros(len(root.phases), dtype=complex)
        for j in model.children[0]:
            into[idx[j]] += I[j]
        return V, I, -v0 * np.conj(into)

    def objective(s, s0):
        p = np.concatenate([s0.real, s.real])
        return float(np.sum((0.5 * alpha * p + beta) * p))

    def scaled(x):
        s = injections(x)
        return SCALE * objective(s, flow(s)[2])

    lo, hi = np.array(bounds, dtype=float).reshape(-1, 2).T
    x = np.clip(0.0, lo, hi)
    if len(x):
        x = minimize(
            scaled,
            x,
            method="L-BFGS-B",
            bounds=bounds,
            options={"ftol": 1e-16, "gtol": 1e-13},
        ).x
    s = injections(x)
    V, I, s0 = flow(s)
    for b in buses:
        vm = np.abs(V[b.id]) ** 2
        if not np.all((np.array(b.v_lo) < vm) & (vm < np.array(b.v_hi))):
            raise ValueError(f"bus {b.id}: a voltage bound binds or is violated")
    solution = {0: XBlock(v=np.outer(v0, v0.conj()), s=s0)}
    for b in buses:
        Vi, Ii = V[b.id], I[b.id]
        solution[b.id] = XBlock(
            v=np.outer(Vi, Vi.conj()),
            s=s[part[b.id]].copy(),
            S=np.outer(Vi, Ii.conj()),
            ell=np.outer(Ii, Ii.conj()),
        )
    return objective(s, s0), solution
