"""Bulk-synchronous ADMM iteration over one agent per bus, run as array operations.

Each bus owns its primal copies x0 = (v, s, S, ell) and x1, a copy of
its v that carries the voltage limits, the observations y that its
y-step re-solves, and the multipliers of its consensus constraints. The
state of a whole run lives in a few flat buffers: x, y and u. Within x
each variable kind of x0 is a contiguous (B, m, m) or (B, m) slab per
group of buses with one phase count (the root on its own), and the
voltage copies end x. y runs bus after bus in the order of the
y-solver: each bus's own copies, its copy of its parent's v, then its
copies of each child's (S, ell).

Every consensus constraint is one row of one table, as in general-form
consensus ADMM: row e ties x entry ``pair[e]`` to y entry ``obs[e]``
with penalty weight ``weight[e]`` and scaled multiplier ``u[e]`` = mu_e /
rho (Boyd et al. 2011, section 3.1.1). The first rows are the identity
on y, each y entry observing one x0 entry; after them comes one row per
entry of each bus's own v, held by its voltage copy. Every per-iteration
index decision is a map that ``State`` builds once, so the work of a
step does not branch on the feeder's shape. It builds the other run
constants once too: the y-solver's operators, which do not depend on
rho, with their views of its c and y buffers, and the injections'
curvature alpha + rho, positions and costs. The x-step completes the square for every copy in
one weighted sum over the rows, clamps the voltage copies in one call,
gathers the (2m, 2m) block targets of the non-root buses of each phase
count and projects them in one batched call per phase count, scatters
the projections and the voltage copies back into x in one operation,
and then projects every phase's injection. The y-step sums u + w x over
the rows into y in one scatter-add and runs one ``YNodeSolver`` for all
buses, on y's float view: one stacked matrix-vector product per y-block
signature, from the linear terms straight into y. The multiplier update
(u += x - y) and the residuals are single operations over the rows. Data
crosses a tree edge only where a step reads an entry that another bus
owns; those entries are the messages, and ``State.messages`` is derived
from them once. Each round takes the state alone; only the injection
projections and the dual residual read its rho (``State.rho``). ``run``
turns a kernel's ValueError into a ``SolverError`` that names the
iteration. Every step applies the per-bus arithmetic elementwise and
reduces in a fixed order, so runs are deterministic bit for bit.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .network import (
    Box,
    BusSpec,
    Disk,
    FeederModel,
    FeederValidationError,
    PhaseSet,
    validate_radial,
)
from .subproblems import (
    XBlock,
    YContext,
    YNodeSolver,
    complete_square_x0,
    interleave,
    project_injection_box,
    project_injection_disk,
    scatter_add,
    solve_x0_matrix,
    solve_x1_voltage,
    y_signature,
)

__all__ = [
    "SolverConfig",
    "IterationStats",
    "State",
    "RunResult",
    "SolverError",
    "initialize",
    "x_update_round",
    "y_update_round",
    "multiplier_update_round",
    "compute_residuals",
    "compute_objective",
    "run",
]

# Flat-start phase references: unit magnitude, 120 degrees apart.
PHASE_REFERENCE = {
    "a": 1.0 + 0.0j,
    "b": complex(math.cos(-2.0 * math.pi / 3.0), math.sin(-2.0 * math.pi / 3.0)),
    "c": complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
}


class SolverError(RuntimeError):
    """Subproblem failure surfaced with its iteration."""


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    tol_scale: float = 1e-4
    max_iters: int = 20000

    def __post_init__(self):
        for name in ("rho", "tol_scale"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        count = self.max_iters
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError("max_iters must be a positive integer")


@dataclass(frozen=True)
class IterationStats:
    k: int
    r: float
    s: float
    objective: float


class _Injections:
    """Every phase's cost and injection region, in the order of the
    groups' s slabs, with the constants of their projections at penalty
    ``rho``, the only run constants that depend on it: ``box`` holds the
    positions of the box phases, ``box_at`` their entries in x, and
    ``box_a1``/``box_beta`` their curvature alpha + rho and linear cost;
    ``disks`` holds (position, entry in x, alpha + rho, beta, radius) per
    half-disk phase. ``half_alpha`` and ``beta`` are every phase's cost
    coefficients alpha/2 and beta, for the objective. ``s`` is the buffer
    that the projections write."""

    def __init__(self, buses: list[BusSpec], s_index: np.ndarray, rho: float):
        phases = [(reg, cost) for b in buses for reg, cost in zip(b.regions, b.cost)]
        alpha = np.array([cost.alpha for _, cost in phases])
        self.half_alpha = 0.5 * alpha
        self.beta = np.array([cost.beta for _, cost in phases])
        a1 = alpha + rho
        boxes = [k for k, (reg, _) in enumerate(phases) if isinstance(reg, Box)]
        self.box = np.array(boxes, dtype=int)
        self.box_at = s_index[self.box]
        self.box_a1, self.box_beta = a1[self.box], self.beta[self.box]
        self.box_bounds = tuple(
            np.array([getattr(phases[k][0], name) for k in boxes])
            for name in ("p_lo", "p_hi", "q_lo", "q_hi")
        )
        self.disks = [
            (k, s_index[k], float(a1[k]), float(self.beta[k]), reg.s_max)
            for k, (reg, _) in enumerate(phases)
            if isinstance(reg, Disk)
        ]
        self.s = np.empty(len(phases), dtype=complex)


class State:
    """The buffers of one run and their index maps.

    ``x_entries[i]`` holds the positions in x of bus i's v, s[, S, ell];
    the rows of a group's slabs follow the feeder's bus order. After
    them x holds the voltage copies, one per own v entry, in the order
    of those entries. y is the y-solver's own buffer; it holds one
    segment per bus, laid out as the bus's y-blocks
    (``subproblems.y_signature``), in the order of ``ysolver.ctxs`` and
    from the offsets ``ysolver.offsets``. Row e of the consensus table
    ties x entry ``pair[e]`` to y entry ``obs[e]`` with weight
    ``weight[e]`` and scaled multiplier ``u[e]`` = mu_e / rho (``obs`` and
    ``weight`` come from ``ysolver``); ``den`` sums the weights per x
    entry; ``pair_slots``/``obs_slots`` interleave ``pair``/``obs`` for
    the scatter-adds. ``s_index`` lists the entries of s in x, in the
    order of ``injections``, which holds the injections' projection
    constants at the penalty ``rho`` (``config.rho``). ``messages`` holds
    the directed (sender, receiver) bus pairs of the entries that a step
    reads across a tree edge; every iteration sends the same ones.

    The x-step's maps: ``blocks`` holds, per non-root phase count m, the
    positions in [hat, conj(hat)] of every bus's (2m, 2m) block target
    [[v, S], [S^H, ell]], shape (B, 2m, 2m); ``x_dst`` lists every entry
    of x but s once and ``x_src`` the position of its value in the
    projected blocks, raveled one class after another, followed by the
    targets (where the voltage copies and the root's v are read).
    ``v_diag`` are the positions in x of the voltage copies' diagonals,
    with their bounds ``v_lo``/``v_hi``. ``ysolver`` solves every bus's
    y-step; its operators do not depend on rho. A rule that changed rho
    would rescale u by rho_old / rho_new and rebuild ``injections``.
    """

    def __init__(self, model: FeederModel, config: SolverConfig):
        self.model = model
        self._by_id = {b.id: b for b in model.buses}
        self._lines = {ln.bus: ln for ln in model.lines}
        self._kids = model.children

        members: dict[tuple[bool, int], list[int]] = {}
        for b in model.buses:
            members.setdefault((b.id in self._lines, len(b.phases)), []).append(b.id)
        keys = sorted(members)

        # x: per group the slabs of v, s and, off the root, S and ell, each
        # as the (B, ...) array of its entry positions
        self._groups = []
        size = 0
        owners = []
        for branch, m in keys:
            ids = members[branch, m]
            slabs = []
            for shape in [(m, m), (m,)] + [(m, m)] * (2 * branch):
                count = len(ids) * math.prod(shape)
                slabs.append(np.arange(size, size + count).reshape((len(ids),) + shape))
                owners.append(np.repeat(ids, count // len(ids)))
                size += count
            self._groups.append((ids, slabs))
        self.x_entries = {
            i: [slab[r] for slab in slabs] for ids, slabs in self._groups for r, i in enumerate(ids)
        }
        v_index = np.concatenate([slabs[0] for _, slabs in self._groups], axis=None)
        self.s_index = np.concatenate([slabs[1] for _, slabs in self._groups], axis=None)
        in_order = [self._by_id[i] for ids, _ in self._groups for i in ids]
        self.rho = config.rho
        self.injections = _Injections(in_order, self.s_index, self.rho)
        # the voltage copy of x entry v_index[k] is x[size + k]; v_index ascends
        copies = size + np.arange(len(v_index))
        self.blocks, self.x_dst, self.x_src = _x_step_maps(keys, self._groups, copies)
        diagonals = [np.diagonal(slabs[0], axis1=1, axis2=2) for _, slabs in self._groups]
        self.v_diag = size + np.searchsorted(v_index, np.concatenate(diagonals, axis=None))
        self.v_lo = np.array([lo for b in in_order for lo in b.v_lo])
        self.v_hi = np.array([hi for b in in_order for hi in b.v_hi])

        # y: buses of one y-block signature next to each other, so that they
        # share one stacked operator
        signatures: dict[tuple, list[YContext]] = {}
        for b in model.buses:
            ctx = self._context(b.id)
            signatures.setdefault(y_signature(ctx), []).append(ctx)
        ctxs = [ctx for group in signatures.values() for ctx in group]
        self.ysolver = YNodeSolver(ctxs)
        self.obs, self.weight = self.ysolver.obs, self.ysolver.weight
        offsets = self.ysolver.offsets
        ny = offsets[-1]
        pair = np.concatenate([self._observed(ctx.bus_id) for ctx in ctxs])
        # a voltage copy's row holds the copy of the v entry its y entry observes
        held = size + np.searchsorted(v_index, pair[self.obs[ny:]])
        self.pair = np.concatenate([pair, held])
        self.den = np.bincount(self.pair, self.weight)
        self.pair_slots, self.obs_slots = interleave(self.pair), interleave(self.obs)

        self.x = np.zeros(size + len(v_index), dtype=complex)
        self.y = self.ysolver.y
        self.y_prev = np.zeros(ny, dtype=complex)
        self.u = np.zeros(len(self.obs), dtype=complex)

        # the voltage copies' rows stay within their bus
        owner_y = np.repeat([ctx.bus_id for ctx in ctxs], np.diff(offsets))
        owner_x = np.concatenate(owners)[pair]
        cross = owner_y != owner_x
        shares = set(zip(owner_y[cross].tolist(), owner_x[cross].tolist()))
        self.messages = frozenset(shares | {(b, a) for a, b in shares})

    def _context(self, i: int) -> YContext:
        bus = self._by_id[i]
        line = self._lines.get(i)
        return YContext(
            bus_id=i,
            phases=bus.phases,
            z=None if line is None else line.z,
            parent_phases=None if line is None else self._by_id[line.parent].phases,
            children=tuple((j, self._by_id[j].phases, self._lines[j].z) for j in self._kids[i]),
        )

    def _observed(self, i: int) -> np.ndarray:
        """The x entries that bus i's y-blocks observe, in its layout order:
        its own v, s[, S, ell], [the parent's v], then each child's S and ell."""
        seen = list(self.x_entries[i])
        if i in self._lines:
            seen.append(self.x_entries[self.model.parent[i]][0])
        for j in self._kids[i]:
            seen += self.x_entries[j][2:]
        return np.concatenate(seen, axis=None)

    def solution(self) -> dict[int, XBlock]:
        """Copies of every bus's primal blocks, by id in feeder order."""
        return {b.id: XBlock(*(self.x[e] for e in self.x_entries[b.id])) for b in self.model.buses}


def _x_step_maps(keys, groups, copies: np.ndarray):
    """The x-step's block gathers and its scatter into x (see ``State``);
    ``copies`` are the positions of the voltage copies, which end x, so
    the conjugated targets start after the last of them."""
    size = copies[-1] + 1
    blocks, dst, src, direct = [], [], [], [copies]
    done = 0  # entries of the projected blocks so far
    for (branch, m), (_, (v, _, *flow)) in zip(keys, groups):
        if not branch:
            direct.append(v)
            continue
        S, ell = flow
        top = np.concatenate([v, S], axis=2)
        bottom = np.concatenate([S.swapaxes(1, 2) + size, ell], axis=2)
        gather = np.concatenate([top, bottom], axis=1)
        blocks.append(gather)
        at = done + np.arange(gather.size).reshape(gather.shape)
        dst += [v, S, ell]
        src += [at[:, :m, :m], at[:, :m, m:], at[:, m:, m:]]
        done += gather.size
    dst += direct
    src += [entries + done for entries in direct]
    return blocks, np.concatenate(dst, axis=None), np.concatenate(src, axis=None)


def _flat_voltage(phases: PhaseSet) -> np.ndarray:
    return np.array([PHASE_REFERENCE[ch] for ch in phases], dtype=complex)


def _initial_injection(bus: BusSpec) -> np.ndarray:
    return np.array([r.initial_point() for r in bus.regions], dtype=complex)


def initialize(model: FeederModel, config: SolverConfig | None = None) -> State:
    """Flat-start state per the zero-impedance heuristic.

    Voltages start at the nominal 120-degree references, injections at a
    point of their region, and branch currents accumulate bottom-up so
    that every line carries the sum of the injection currents below it.
    Observations start equal to the primal copies and multipliers at zero.
    """
    if config is None:
        config = SolverConfig()
    state = State(model, config)
    buses = {b.id: b for b in model.buses}

    volt = {i: _flat_voltage(b.phases) for i, b in buses.items()}
    inj = {i: _initial_injection(b) for i, b in buses.items()}

    # bottom-up accumulation of branch currents (children before parents)
    current: dict[int, np.ndarray] = {}
    post = []
    stack = [0]
    while stack:
        i = stack.pop()
        post.append(i)
        stack.extend(model.children[i])
    for i in reversed(post):
        amps = np.conj(inj[i] / volt[i])
        for j in model.children[i]:
            idx = buses[j].phases.indices_in(buses[i].phases)
            amps[idx] += current[j]
        current[i] = amps

    x = state.x
    for ids, slabs in state._groups:
        v, i_line, s = (np.array([arr[i] for i in ids]) for arr in (volt, current, inj))
        x[slabs[0]] = v[:, :, None] * v.conj()[:, None, :]
        x[slabs[1]] = s
        if len(slabs) > 2:
            x[slabs[2]] = v[:, :, None] * i_line.conj()[:, None, :]
            x[slabs[3]] = i_line[:, :, None] * i_line.conj()[:, None, :]
    ny = len(state.y)
    state.y[...] = state.x[state.pair[:ny]]
    state.x[state.pair[ny:]] = state.y[state.obs[ny:]]
    state.y_prev[...] = state.y
    return state


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _project_injections(state: State, hat: np.ndarray) -> None:
    """Every phase's injection about its target in ``hat``: the box clamp
    for all box phases at once, then the half-disk projection once per
    DER phase."""
    inj, rho = state.injections, state.rho
    s_hat = hat[inj.box_at]
    s = inj.s
    s.real[inj.box], s.imag[inj.box] = project_injection_box(
        inj.box_a1, inj.box_beta - rho * s_hat.real, rho, -rho * s_hat.imag, *inj.box_bounds
    )
    for k, at, a1, beta, s_max in inj.disks:
        p = q = 0.0
        if s_max != 0.0:
            t = complex(hat[at])
            p, q = project_injection_disk(a1, beta - rho * t.real, rho, -rho * t.imag, s_max)
        s[k] = complex(p, q)
    state.x[state.s_index] = s


def x_update_round(state: State) -> None:
    """Update every x_{i0} and x_{i1} from the observations."""
    hat = complete_square_x0(state.y[state.obs], state.u, state.weight, state.pair_slots, state.den)
    solve_x1_voltage(hat, state.v_diag, state.v_lo, state.v_hi)
    targets = np.concatenate([hat, hat.conj()])
    projected = [solve_x0_matrix(targets[index]) for index in state.blocks]
    state.x[state.x_dst] = np.concatenate(projected + [hat], axis=None)[state.x_src]
    _project_injections(state, hat)


def y_update_round(state: State) -> None:
    """Re-solve every neighborhood observation set from the primal copies."""
    total = scatter_add(state.obs_slots, state.u + state.weight * state.x[state.pair], len(state.y))
    np.copyto(state.y_prev, state.y)
    state.ysolver.assemble_c(total)
    state.ysolver.solve()


def multiplier_update_round(state: State) -> None:
    """Dual ascent in scaled form: every multiplier u moves by its consensus gap."""
    state.u += state.x[state.pair] - state.y[state.obs]


def _sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def compute_residuals(state: State) -> tuple[float, float]:
    """Primal gap norm ||x - y|| and scaled dual change rho * ||y - y_prev||."""
    gap = state.x[state.pair] - state.y[state.obs]
    return math.sqrt(_sq(gap)), state.rho * math.sqrt(_sq(state.y - state.y_prev))


def compute_objective(state: State) -> float:
    """Sum of the phase costs f(p) = alpha/2 p^2 + beta p at the injections."""
    inj = state.injections
    p = state.x[state.s_index].real
    return float((inj.half_alpha * p * p + inj.beta * p).sum())


@dataclass
class RunResult:
    solution: dict[int, XBlock]
    history: list[IterationStats]
    status: str
    wall_seconds: float
    x_round_seconds: float
    n_buses: int
    message_pairs: set[tuple[int, int]] | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def run(
    model: FeederModel,
    config: SolverConfig | None = None,
    record_messages: bool = False,
) -> RunResult:
    """Iterate x, y, and multiplier rounds until both residuals pass.

    Stops when r and s both fall below tol_scale * sqrt(|buses|)
    (status "converged"), at the first iteration where r or s is not
    finite ("diverged"), or at the iteration cap ("max-iters"), and
    returns the primal blocks with the full residual history. A kernel's
    ValueError is raised as a ``SolverError`` that names the iteration.
    """
    if config is None:
        config = SolverConfig()
    violations = validate_radial(model)
    if violations:
        raise FeederValidationError(violations)

    state = initialize(model, config)
    tol = config.tol_scale * math.sqrt(len(model))
    history: list[IterationStats] = []
    x_time = 0.0
    status = "max-iters"
    t_start = time.perf_counter()
    try:
        for k in range(1, config.max_iters + 1):
            t0 = time.perf_counter()
            x_update_round(state)
            x_time += time.perf_counter() - t0
            y_update_round(state)
            multiplier_update_round(state)
            r, s = compute_residuals(state)
            history.append(IterationStats(k, r, s, compute_objective(state)))
            if not (math.isfinite(r) and math.isfinite(s)):
                status = "diverged"
                break
            if r <= tol and s <= tol:
                status = "converged"
                break
    except ValueError as exc:
        raise SolverError(f"iteration {k}: {exc}") from exc
    wall = time.perf_counter() - t_start
    solution = state.solution()
    return RunResult(
        solution=solution,
        history=history,
        status=status,
        wall_seconds=wall,
        x_round_seconds=x_time,
        n_buses=len(model),
        message_pairs=set(state.messages) if record_messages else None,
    )
