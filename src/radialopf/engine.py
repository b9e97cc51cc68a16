"""Bulk-synchronous ADMM iteration over one agent per bus, run as array operations.

Each bus owns its primal copies x0 = (v, s, S, ell) and x1, a copy of
its v that carries the voltage limits, the observations y that its
y-step re-solves, and the multipliers of its consensus constraints. The
state of a whole run lives in a few flat buffers: x, y and u. Within x
the blocks, the (2m, 2m) Hermitian matrices [[v, S], [S^H, ell]] of the
paper's x-step (v alone at the root), lie in contiguous slabs by width:
the widest non-root width K has one (B, K, K) slab, which a narrower
width's blocks join, zero-padded, when the feeder has at most
``N_JOIN`` of them. Each group of buses with one phase count (the root
on its own) also holds a (B, m) slab of s and a (B, m, m) slab of the
voltage copies. y holds each bus's y-blocks (``subproblems.y_blocks``),
bus after bus in the y-solver's order.

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
positions, costs and (p, q) box constants, whose curvature it checks
then. The x-step runs in place in x: it writes the square-completion
target of every copy into x's float views in one weighted sum over the
rows and one division per part, clamps the voltage copies in one call,
projects each non-root slab of blocks onto the PSD cone in one batched
call, written back in place, clamps the (p, q) pairs of all box phases
at once, and projects each half-disk phase. The projection reads each
block's upper triangle alone and writes its S^H corner, which no row
observes, as the adjoint of S; nothing fills that corner before. No row
observes the padding either: square completion writes 0 there, and the
projection of a zero-padded block keeps the zeros. The y-step sums
u + w x over the rows into y in one scatter-add and runs one
``YNodeSolver`` for all buses, on y's float view: one stacked
matrix-vector product per group of buses, a shared
neighborhood or a y-block signature, from the linear terms straight into y. The multiplier update forms every row's
gap x - y once and adds it to u; the primal residual is that gap's
norm. Data crosses a tree edge only where a y-block copies an entry
that another bus owns; those blocks are the messages, and
``State.messages`` is read from the blocks' owners once. Each round takes the state alone; only the
injection projections and the dual residual read its rho
(``State.rho``). ``run`` turns a kernel's ValueError into a
``SolverError`` that names the iteration. Every step applies the
per-bus arithmetic elementwise and reduces in a fixed order, without a
BLAS dot product, so runs are deterministic bit for bit, with one BLAS
thread or two.
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
    YNodeSolver,
    complete_square_x0,
    interleave,
    project_injection_box,
    project_injection_disk,
    scatter_add,
    solve_x0_matrix,
    solve_x1_voltage,
    y_blocks,
    y_context,
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


DIVERGENCE_FACTOR = 1e6  # ``run``'s bound on the growth of r
N_JOIN = 8  # most blocks of a narrower width that join the widest slab


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
    ``rho``, the only run constants that depend on it: ``box_at`` holds
    the entries in x of the box phases and ``box_a``, ``box_b``,
    ``box_lo``, ``box_hi`` their (B, 2) float pairs (alpha + rho, rho),
    (beta, -0.0), (p_lo, q_lo) and (p_hi, q_hi), with ``box_a`` > 0
    checked here, once; ``disks`` holds (entry in x, alpha + rho, beta,
    radius) per half-disk phase. ``half_alpha`` and ``beta`` are every
    phase's cost coefficients alpha/2 and beta, for the objective. The
    projections read their targets from x and write x."""

    def __init__(self, buses: list[BusSpec], s_index: np.ndarray, rho: float):
        phases = [(reg, cost) for b in buses for reg, cost in zip(b.regions, b.cost)]
        alpha = np.array([cost.alpha for _, cost in phases])
        self.half_alpha = 0.5 * alpha
        self.beta = np.array([cost.beta for _, cost in phases])
        a1 = alpha + rho
        box = [(k, reg) for k, (reg, _) in enumerate(phases) if isinstance(reg, Box)]
        self.box_at = s_index[np.array([k for k, _ in box], dtype=int)]
        # q's linear cost is -0.0, so that -(-0.0 - rho t_q) / rho keeps the sign of t_q's zero
        rows = [(a1[k], rho, self.beta[k], -0.0, r.p_lo, r.q_lo, r.p_hi, r.q_hi) for k, r in box]
        pairs = np.array(rows, dtype=float).reshape(-1, 4, 2).swapaxes(0, 1).copy()
        self.box_a, self.box_b, self.box_lo, self.box_hi = pairs
        if not (self.box_a > 0).all():
            raise ValueError("nonpositive curvature")
        self.disks = [
            (s_index[k], float(a1[k]), float(self.beta[k]), reg.s_max)
            for k, (reg, _) in enumerate(phases)
            if isinstance(reg, Disk)
        ]


class State:
    """The buffers of one run and their index maps.

    x holds, per group of buses with one phase count (the root on its
    own), rows of a slab of blocks, a slab of s and one of voltage
    copies. Off the root a block is the bus's (2m, 2m) Hermitian matrix
    [[v, S], [S^H, ell]], at the root its v alone. A group of at most
    ``N_JOIN`` buses has its blocks zero-padded in the slab of the widest
    non-root width, a larger one in a slab of their own width; the
    first group in a slab lays it down. ``x_entries[i]`` holds the
    positions in x of bus i's v, s[, S, ell] and ``v_copy[i]`` those of
    its (m, m) voltage copy; the rows of a group's slabs follow the
    feeder's bus order. y is the y-solver's own buffer: one segment per
    bus of ``ysolver.ctxs`` (given in feeder order, ordered by the solver), from
    ``ysolver.offsets``, laid out as the bus's y-blocks
    (``subproblems.y_blocks``). Row e of the consensus table
    ties x entry ``pair[e]`` to y entry ``obs[e]`` with weight
    ``weight[e]`` and scaled multiplier ``u[e]`` = mu_e / rho (``obs`` and
    ``weight`` come from ``ysolver``; an identity row's x entry is
    ``x_entries[owner][kind]`` of its y-block, a voltage row's the entry
    of ``v_copy[bus]`` at its own v entry); ``gap`` holds x[pair] -
    y[obs] at the last multiplier update and ``dy`` y - ``y_prev`` at
    the last residuals. ``den`` sums the weights per x entry, and is 1
    on the S^H corners and the padding, which no row observes;
    ``pair_slots``/``obs_slots`` interleave ``pair``/``obs`` for the
    scatter-adds. ``s_index`` lists the entries of s in x, in the order
    of ``injections``, which holds the injections' projection constants
    at the penalty ``rho`` (``config.rho``). ``messages`` holds the
    directed (sender, receiver) pairs of the y-blocks that copy another
    bus's entries, both ways; every iteration sends the same ones.

    The x-step runs in x: ``slabs`` holds the view of x as each non-root
    slab's (B, K, K) blocks, whose S^H corners nothing fills before the
    projection. ``v_diag`` are the positions in x of
    the voltage copies' diagonals, group after group, with their bounds
    ``v_lo``/``v_hi``. ``ysolver`` solves every bus's y-step; its
    operators do not depend on rho. A rule that changed rho would
    rescale u by rho_old / rho_new and rebuild ``injections``.
    """

    def __init__(self, model: FeederModel, config: SolverConfig):
        self.model = model
        members: dict[tuple[bool, int], list[int]] = {}
        for b in model.buses:
            members.setdefault((b.id in model.line, len(b.phases)), []).append(b.id)
        # the slab (branch, width) of each group (branch, m): a narrow width with
        # at most N_JOIN blocks joins the widest, its blocks zero-padded
        wide = max((2 * m for branch, m in members if branch), default=0)
        slab_of = {g: (True, wide if len(ids) <= N_JOIN else 2 * g[1]) if g[0] else g
                   for g, ids in members.items()}

        # x: per group its rows of a (B, K, K) slab of blocks, laid down by
        # the slab's first group, then a slab of s, (B, m), and one of voltage
        # copies, (B, m, m); each as the array of its entry positions
        self._groups, self.x_entries, self.v_copy = [], {}, {}
        rest, flows, diagonals = {}, [], []  # slabs' untaken rows; non-root slabs; diagonals
        size = 0
        for branch, m in sorted(members):
            ids, key = members[branch, m], slab_of[branch, m]
            shapes = [(len(ids), m), (len(ids), m, m)]
            if key not in rest:
                rows = sum(len(members[g]) for g in members if slab_of[g] == key)
                shapes.insert(0, (rows, key[1], key[1]))
            spans = []
            for shape in shapes:
                spans.append(np.arange(size, size + math.prod(shape)).reshape(shape))
                size += spans[-1].size
            if key not in rest:
                rest[key] = spans[0]
                flows += [spans[0]] if branch else []
            k = 2 * m if branch else m
            block, rest[key] = rest[key][: len(ids), :k, :k], rest[key][len(ids) :]
            s, copy = spans[-2:]
            kinds = [block[:, :m, :m], s]
            if branch:
                kinds += [block[:, :m, m:], block[:, m:, m:]]
            self._groups.append((ids, block, kinds))
            for r, i in enumerate(ids):
                self.x_entries[i] = [kind[r] for kind in kinds]
                self.v_copy[i] = copy[r]
            diagonals.append(np.diagonal(copy, axis1=1, axis2=2))
        self.s_index = np.concatenate([kinds[1] for _, _, kinds in self._groups], axis=None)
        in_order = [model.by_id[i] for ids, _, _ in self._groups for i in ids]
        self.rho = config.rho
        self.injections = _Injections(in_order, self.s_index, self.rho)
        self.v_diag = np.concatenate(diagonals, axis=None)
        self.v_lo = np.array([lo for b in in_order for lo in b.v_lo])
        self.v_hi = np.array([hi for b in in_order for hi in b.v_hi])

        # y: the y-solver's layout; each y-block observes its owner's x
        # entries of its kind, and each voltage row its bus's copy of the v
        # entry that its y entry observes
        self.ysolver = YNodeSolver([y_context(model, b.id) for b in model.buses])
        self.obs, self.weight = self.ysolver.obs, self.ysolver.weight
        ny = self.ysolver.offsets[-1]
        ctxs = self.ysolver.ctxs
        seen = [(c.bus_id, owner, kind) for c in ctxs for owner, kind, _, _ in y_blocks(c)]
        entries = [self.x_entries[owner][kind] for _, owner, kind in seen]
        entries += [self.v_copy[c.bus_id] for c in ctxs]
        self.pair = np.concatenate(entries, axis=None)
        self.den = np.bincount(self.pair, self.weight)
        # no row observes an S^H corner or the padding; weight 1 keeps 0 / 0 out
        self.den[self.den == 0] = 1.0
        self.pair_slots, self.obs_slots = interleave(self.pair), interleave(self.obs)

        self.x = np.zeros(size, dtype=complex)
        self.slabs = [self.x[b.flat[0] : b.flat[0] + b.size].reshape(b.shape) for b in flows]
        self.y = self.ysolver.y
        self.y_prev = np.zeros(ny, dtype=complex)
        self.dy = np.zeros(ny, dtype=complex)
        self.u = np.zeros(len(self.obs), dtype=complex)
        self.gap = np.zeros(len(self.obs), dtype=complex)

        # a bus reads its copies of its neighbors' entries, and they read its
        # own; the voltage copies' rows stay within their bus
        shares = {(i, owner) for i, owner, _ in seen if owner != i}
        self.messages = frozenset(shares | {(b, a) for a, b in shares})

    def solution(self) -> dict[int, XBlock]:
        """Copies of every bus's primal blocks, by id in feeder order."""
        return {b.id: XBlock(*(self.x[e] for e in self.x_entries[b.id])) for b in self.model.buses}


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
    buses = model.by_id
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
    for ids, block, kinds in state._groups:
        # each block is w w^H, with w = (v, i) off the root and v at it
        w = np.array([np.concatenate([volt[i], current[i]]) for i in ids])[:, : block.shape[-1]]
        x[block] = w[:, :, None] * w.conj()[:, None, :]
        x[kinds[1]] = np.array([inj[i] for i in ids])
    ny = len(state.y)
    state.y[...] = state.x[state.pair[:ny]]
    state.x[state.pair[ny:]] = state.y[state.obs[ny:]]
    state.y_prev[...] = state.y
    return state


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _project_injections(state: State) -> None:
    """Every phase's injection about its target in x, in place: one clamp
    of the (p, q) pairs of all box phases, then the half-disk projection
    once per DER phase."""
    x, inj, rho = state.x, state.injections, state.rho
    t = x[inj.box_at].view(float).reshape(-1, 2)
    pq = project_injection_box(inj.box_a, inj.box_b - rho * t, inj.box_lo, inj.box_hi)
    x[inj.box_at] = pq.view(complex)[:, 0]
    for at, a1, beta, s_max in inj.disks:
        p = q = 0.0
        if s_max != 0.0:
            t = complex(x[at])
            p, q = project_injection_disk(a1, beta - rho * t.real, rho, -rho * t.imag, s_max)
        x[at] = complex(p, q)


def x_update_round(state: State) -> None:
    """Update every x_{i0} and x_{i1} from the observations, in place in x:
    the square-completion targets, the voltage clamp, then the PSD
    projection of each slab, which reads the upper triangle of each block
    (the S^H corners are not filled), and the injection projections."""
    x = state.x
    complete_square_x0(state.y[state.obs], state.u, state.weight, state.pair_slots, state.den, x)
    solve_x1_voltage(x, state.v_diag, state.v_lo, state.v_hi)
    for slab in state.slabs:
        slab[...] = solve_x0_matrix(slab)
    _project_injections(state)


def y_update_round(state: State) -> None:
    """Re-solve every neighborhood observation set from the primal copies."""
    total = scatter_add(state.obs_slots, state.u + state.weight * state.x[state.pair], len(state.y))
    np.copyto(state.y_prev, state.y)
    state.ysolver.assemble_c(total)
    state.ysolver.solve()


def multiplier_update_round(state: State) -> None:
    """Dual ascent in scaled form: form every row's consensus gap
    x[pair] - y[obs] once, in ``state.gap``, and move u by it."""
    np.subtract(state.x[state.pair], state.y[state.obs], out=state.gap)
    state.u += state.gap


def _sq(a: np.ndarray) -> float:
    # numpy's own pairwise sum: unlike a BLAS dot, its bits do not depend on
    # the BLAS thread count
    f = a.view(float)
    return float(np.add.reduce(f * f))


def compute_residuals(state: State) -> tuple[float, float]:
    """Primal gap norm ||x - y||, of the gap of the last multiplier update,
    and scaled dual change rho * ||y - y_prev||, formed in ``state.dy``."""
    np.subtract(state.y, state.y_prev, out=state.dy)
    return math.sqrt(_sq(state.gap)), state.rho * math.sqrt(_sq(state.dy))


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
    finite or r exceeds ``DIVERGENCE_FACTOR`` times both its earlier
    minimum and the tolerance ("diverged"), or at the iteration cap
    ("max-iters"), and returns the primal blocks with the full residual
    history. A kernel's ValueError is raised as a ``SolverError`` that
    names the iteration.
    """
    if config is None:
        config = SolverConfig()
    violations = validate_radial(model)
    if violations:
        raise FeederValidationError(violations)

    state = initialize(model, config)
    tol = config.tol_scale * math.sqrt(len(model))
    history: list[IterationStats] = []
    status = "max-iters"
    r_min = math.inf
    t_start = time.perf_counter()
    try:
        for k in range(1, config.max_iters + 1):
            x_update_round(state)
            y_update_round(state)
            multiplier_update_round(state)
            r, s = compute_residuals(state)
            history.append(IterationStats(k, r, s, compute_objective(state)))
            finite = math.isfinite(r) and math.isfinite(s)
            if not finite or r > DIVERGENCE_FACTOR * max(r_min, tol):
                status = "diverged"
                break
            r_min = min(r_min, r)
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
        n_buses=len(model),
        message_pairs=set(state.messages) if record_messages else None,
    )
