"""A per-agent reference executor of the ADMM iteration, one object per bus.

Each ``Agent`` owns its primal copies x0 = (v, s, S, ell) and x1 (its copy
of v that carries the voltage limits) in a buffer of its own, its y
segment and the scaled multipliers of its rows. All it learns of another
bus comes in a message along a tree edge, filled from the sender's own
blocks: before the x-step each bus sends every neighbor its copies of the
neighbor's variables and their multipliers; before the y-step and the
dual step each bus sends every neighbor the primal blocks that the
neighbor's y-blocks copy. Each bus runs the
package's kernels on its own data: square completion, the voltage clamp,
the PSD projection, the box and half-disk projections and a one-bus
``YNodeSolver``. It builds its own flat start and uses none of
``engine.State``'s index maps, slabs or scatter-adds, so the engine's
agreement with it checks everything that batching adds.

It recorded ``data/engine_equivalence.json``. To re-record every record
there, from its feeder at the default config, run from the repository root:

    PYTHONPATH=src python tests/reference.py tests/data/engine_equivalence.json
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from radialopf.engine import (
    DIVERGENCE_FACTOR,
    PHASE_REFERENCE,
    IterationStats,
    RunResult,
    SolverConfig,
)
from radialopf.network import Box, BusSpec, FeederModel, loads_feeder
from radialopf.subproblems import (
    XBlock,
    YContext,
    YNodeSolver,
    complete_square_x0,
    interleave,
    project_injection_box,
    project_injection_disk,
    solve_x0_matrix,
    solve_x1_voltage,
    y_blocks,
    y_context,
)

COMMAND = "PYTHONPATH=src python tests/reference.py tests/data/engine_equivalence.json"
FIELDS = ("v", "s", "S", "ell")


class Agent:
    """One bus. x = [block, s, x1] is its own flat buffer, where the
    block is [[v, S], [S^H, ell]] off the root and v alone at it;
    ``at[kind]`` holds the positions in x of v, s[, S, ell] and ``x1_at``
    those of x1. ``y`` is its y segment (its one-bus solver's buffer),
    which opens with its copy of its own v, the one x1's rows observe;
    ``u`` and ``u1`` are the scaled multipliers of the segment's rows and
    of x1's rows. ``copy_of[o]`` holds the positions in y of its copies of
    bus o's entries, and ``seen_by[o]`` the positions in x of its entries
    that bus o's copies observe, in o's block order, with their weights."""

    def __init__(self, bus: BusSpec, ctx: YContext, neighbors: dict[int, YContext], rho: float):
        self.id, self.bus, self.ctx, self.m = ctx.bus_id, bus, ctx, len(bus.phases)
        self.neighbors = list(neighbors)
        m = self.m
        k = m if ctx.is_root else 2 * m
        self.x = np.zeros(k * k + m + m * m, dtype=complex)
        at = np.arange(len(self.x))
        block = at[: k * k].reshape(k, k)
        self.at = [block[:m, :m], at[k * k : k * k + m]]
        if not ctx.is_root:
            self.at += [block[:m, m:], block[m:, m:]]
        self.x1_at = at[k * k + m :].ravel()
        self.block = self.x[: k * k].reshape(1, k, k)
        self.solver = YNodeSolver([ctx])
        self.y = self.solver.y
        self.u = np.zeros_like(self.y)
        self.u1 = np.zeros(m * m, dtype=complex)

        self.copy_of, start = {}, 0
        for owner, _, shape, _ in y_blocks(ctx):
            size = math.prod(shape)
            self.copy_of.setdefault(owner, []).append(np.arange(start, start + size))
            start += size
        self.copy_of = {o: np.concatenate(spans) for o, spans in self.copy_of.items()}
        self.seen_by = {}
        for o, c in [(self.id, ctx), *neighbors.items()]:
            mine = [(self.at[kind], w) for owner, kind, _, w in y_blocks(c) if owner == self.id]
            pos = np.concatenate([p.ravel() for p, _ in mine])
            self.seen_by[o] = pos, np.repeat([w for _, w in mine], [p.size for p, _ in mine])
        # the square completion's rows: its own copies, each neighbor's
        # copies of its entries, then x1's, of weight 1, on its own v's copy
        rows = [self.seen_by[o] for o in [self.id, *self.neighbors]]
        rows.append((self.x1_at, np.ones(m * m)))
        pos = np.concatenate([p for p, _ in rows])
        self.weight = np.concatenate([w for _, w in rows])
        self.slots = interleave(pos)
        self.den = np.bincount(pos, self.weight, len(self.x))
        self.den[self.den == 0] = 1.0  # the S^H corner, which nothing observes

        phases = list(zip(self.at[1], bus.regions, bus.cost))
        box = [(at, r, c) for at, r, c in phases if isinstance(r, Box)]
        self.box_at = np.array([at for at, _, _ in box], dtype=int)
        pairs = [
            ((c.alpha + rho, rho), (c.beta, -0.0), (r.p_lo, r.q_lo), (r.p_hi, r.q_hi))
            for _, r, c in box
        ]
        pairs = np.array(pairs).reshape(-1, 4, 2).swapaxes(0, 1)
        self.box_a, self.box_b, self.box_lo, self.box_hi = pairs
        self.disks = [
            (at, c.alpha + rho, c.beta, r.s_max) for at, r, c in phases if not isinstance(r, Box)
        ]
        self.v_lo, self.v_hi = np.array(bus.v_lo), np.array(bus.v_hi)
        self.half_alpha = np.array([0.5 * c.alpha for c in bus.cost])
        self.beta = np.array([c.beta for c in bus.cost])
        self.used: set[tuple[int, int]] = set()

    def read(self, inbox, sender):
        """A neighbor's message to this bus, noted as used."""
        self.used.add((sender, self.id))
        return inbox[sender, self.id]

    def y_message(self, to: Agent):
        """This bus's copies of ``to``'s entries and their multipliers."""
        copies = self.copy_of[to.id]
        return self.y[copies], self.u[copies]

    def x_message(self, to: Agent):
        """This bus's entries that ``to``'s copies observe."""
        return self.x[self.seen_by[to.id][0]]

    def x_step(self, inbox, rho: float) -> None:
        """Square completion over its rows, then the voltage clamp, the PSD
        projection and the injection projections, in its own x."""
        got = [self.read(inbox, j) for j in self.neighbors]
        own = self.copy_of[self.id]
        y = np.concatenate([self.y[own], *(y for y, _ in got), self.y[: self.m**2]])
        u = np.concatenate([self.u[own], *(u for _, u in got), self.u1])
        complete_square_x0(y, u, self.weight, self.slots, self.den, self.x)
        solve_x1_voltage(self.x, self.x1_at[:: self.m + 1], self.v_lo, self.v_hi)
        if not self.ctx.is_root:
            self.block[...] = solve_x0_matrix(self.block)
        t = self.x[self.box_at].view(float).reshape(-1, 2)
        pq = project_injection_box(self.box_a, self.box_b - rho * t, self.box_lo, self.box_hi)
        self.x[self.box_at] = pq.view(complex)[:, 0]
        for at, a1, beta, s_max in self.disks:
            p = q = 0.0
            if s_max != 0.0:
                t = complex(self.x[at])
                p, q = project_injection_disk(a1, beta - rho * t.real, rho, -rho * t.imag, s_max)
            self.x[at] = complex(p, q)

    def copies(self, inbox) -> np.ndarray:
        """The primal values that its y segment copies, entry by entry."""
        seen = np.empty_like(self.y)
        seen[self.copy_of[self.id]] = self.x[self.seen_by[self.id][0]]
        for j in self.neighbors:
            seen[self.copy_of[j]] = self.read(inbox, j)
        return seen

    def y_step(self, seen: np.ndarray) -> float:
        """Re-solve y from the copied primal values; return |y - y_prev|^2."""
        total = self.u + self.solver.weight[: len(self.y)] * seen
        total[: self.m**2] += self.u1 + self.x[self.x1_at]
        y_prev = self.y.copy()
        self.solver.assemble_c(total)
        self.solver.solve()
        return sq(self.y - y_prev)

    def dual_step(self, seen: np.ndarray) -> float:
        """Move the multipliers by the consensus gaps; return their |gap|^2."""
        gap, gap1 = seen - self.y, self.x[self.x1_at] - self.y[: self.m**2]
        self.u += gap
        self.u1 += gap1
        return sq(gap) + sq(gap1)

    def objective(self) -> float:
        p = self.x[self.at[1]].real
        return float((self.half_alpha * p * p + self.beta * p).sum())


def sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


class Reference:
    """Every bus's agent at the flat start: nominal 120-degree voltages,
    injections at their region's initial point, branch currents summed
    from the leaves up; y copies x, x1 copies v and the multipliers are 0."""

    def __init__(self, model: FeederModel, config: SolverConfig):
        self.config = config
        ctxs = {b.id: y_context(model, b.id) for b in model.buses}
        self.agents = {}
        for i, ctx in ctxs.items():
            around = ([] if ctx.is_root else [ctx.parent]) + [j for j, _, _ in ctx.children]
            self.agents[i] = Agent(model.by_id[i], ctx, {j: ctxs[j] for j in around}, config.rho)
        order, stack = [], [0]
        while stack:
            order.append(stack.pop())
            stack.extend(model.children[order[-1]])
        current = {}
        for i in reversed(order):
            a = self.agents[i]
            v = np.array([PHASE_REFERENCE[ch] for ch in a.bus.phases])
            s = np.array([r.initial_point() for r in a.bus.regions], dtype=complex)
            amps = np.conj(s / v)
            for j in model.children[i]:
                amps[self.agents[j].bus.phases.indices_in(a.bus.phases)] += current[j]
            current[i] = amps
            w = np.concatenate([v, amps])[: a.block.shape[-1]]
            a.block[0] = np.outer(w, w.conj())
            a.x[a.at[1]] = s
            a.x[a.x1_at] = a.x[a.at[0]].ravel()
        inbox = self.exchange(Agent.x_message)
        for a in self.agents.values():
            a.y[...] = a.copies(inbox)

    def exchange(self, fill) -> dict:
        """Every bus's message to each neighbor, keyed (sender, receiver)."""
        agents = self.agents
        return {(a.id, j): fill(a, agents[j]) for a in agents.values() for j in a.neighbors}

    def iterate(self) -> tuple[float, float, float]:
        """One round of x-steps, y-steps and dual steps; (r, s, objective)."""
        rho, agents = self.config.rho, self.agents.values()
        inbox = self.exchange(Agent.y_message)
        for a in agents:
            a.x_step(inbox, rho)
        inbox = self.exchange(Agent.x_message)
        seen = {a.id: a.copies(inbox) for a in agents}
        dy = sum(a.y_step(seen[a.id]) for a in agents)
        gap = sum(a.dual_step(seen[a.id]) for a in agents)
        return math.sqrt(gap), rho * math.sqrt(dy), sum(a.objective() for a in agents)

    def used(self) -> set[tuple[int, int]]:
        """The (sender, receiver) pairs of every message a bus has read."""
        return set().union(*(a.used for a in self.agents.values()))

    def solution(self) -> dict[int, XBlock]:
        return {i: XBlock(*(a.x[p] for p in a.at)) for i, a in self.agents.items()}


def run(model: FeederModel, config: SolverConfig | None = None) -> RunResult:
    """The engine's ``run``, stop rules included, on the per-agent executor."""
    config = config or SolverConfig()
    ref = Reference(model, config)
    tol = config.tol_scale * math.sqrt(len(model))
    history, status, r_min = [], "max-iters", math.inf
    for k in range(1, config.max_iters + 1):
        r, s, objective = ref.iterate()
        history.append(IterationStats(k, r, s, objective))
        if not (math.isfinite(r) and math.isfinite(s)) or r > DIVERGENCE_FACTOR * max(r_min, tol):
            status = "diverged"
            break
        r_min = min(r_min, r)
        if r <= tol and s <= tol:
            status = "converged"
            break
    return RunResult(ref.solution(), history, status, 0.0, len(model))


def record(feeder: dict, config: SolverConfig) -> dict:
    """What the reference returns for ``feeder``, in the equivalence data's form."""
    result = run(loads_feeder(json.dumps(feeder)), config)
    last = result.history[-1]
    solution = {}
    for i, blocks in result.solution.items():
        present = [(f, getattr(blocks, f)) for f in FIELDS if getattr(blocks, f) is not None]
        solution[str(i)] = {f: a.view(float).ravel().tolist() for f, a in present}
    return {
        "feeder": feeder,
        "status": result.status,
        "iters": len(result.history),
        "r": last.r,
        "s": last.s,
        "objective": last.objective,
        "solution": solution,
        "recorded_by": {"command": COMMAND, "config": dataclasses.asdict(config)},
    }


if __name__ == "__main__":
    path = Path(sys.argv[1])
    records = json.loads(path.read_text())
    config = SolverConfig()
    for name, rec in records.items():
        records[name] = record(rec["feeder"], config)
        print(f"{name}: {records[name]['status']} in {records[name]['iters']} iterations")
    path.write_text(json.dumps(records, separators=(",", ":")))
