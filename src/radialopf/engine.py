"""Bulk-synchronous ADMM iteration over one agent per bus, run as array operations.

Each bus owns its primal copies x = (v, s, S, ell), a voltage copy x1_v
with its multiplier lam1, the observations y that its y-step re-solves,
and one multiplier per observation. The state of a whole run lives in a
few flat buffers: x, x1_v, lam1, y, and mu (laid out like y). y holds
every bus's own copies, the parent-voltage copy each child holds, and
the (S, ell) copy each parent holds of each child; the pairing index
``pair`` maps every y entry to the x entry it observes. Within a buffer
each variable kind is a contiguous (B, m, m) or (B, m) slab per group of
buses with one phase count (the root on its own).

Every per-iteration index decision is a map that ``State`` builds once,
so the work of a step does not branch on the feeder's shape. Every y
entry carries its penalty weight (``weight``, from
``subproblems.y_weights``). The x-step completes the square for every
bus in one weighted sum over y, gathers the (2m, 2m) block targets of
the non-root buses of each phase count and projects them in one batched
call per phase count, scatters the projections back into x in one
operation, clamps every voltage copy in one call, and then projects
every phase's injection. The y-step is one ``YNodeSolver`` for all buses:
one gather of the linear terms, one stacked matrix-vector product per
y-block signature, one scatter into y. The multiplier update and the
residuals are single operations on whole buffers. Data crosses a tree
edge only where a step reads an entry that another bus owns; those
entries are the messages, and the message audit is derived from them.
Every step applies the per-bus arithmetic elementwise and reduces in a
fixed order, so runs are deterministic bit for bit.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .network import (
    Box,
    BusSpec,
    Disk,
    FeederModel,
    LineSpec,
    PhaseSet,
    validate_radial,
)
from .subproblems import (
    XBlock,
    YContext,
    YNodeSolver,
    complete_square_x0,
    project_injection_box,
    project_injection_disk,
    solve_x0_matrix,
    solve_x1_voltage,
    y_signature,
    y_weights,
)

__all__ = [
    "SolverConfig",
    "IterationStats",
    "State",
    "BusView",
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
        if not (math.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be positive and finite")
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise ValueError("tol_scale must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class IterationStats:
    k: int
    r: float
    s: float
    objective: float


@dataclass
class FlowObservation:
    """Branch-flow observation a parent holds about one of its children."""

    S: np.ndarray
    ell: np.ndarray
    mu_S: np.ndarray
    mu_ell: np.ndarray


@dataclass
class VoltageObservation:
    """Voltage observation a child holds about its parent."""

    v: np.ndarray
    mu_v: np.ndarray


@dataclass
class BusView:
    """Bus i's share of the run's buffers under per-agent names.

    Every array is a view, so writing into one writes the run's state.
    ``y_child`` and ``ycache_child`` are keyed by child id;
    ``ycache_parent`` is the parent's copy of this bus's (S, ell).
    """

    bus: BusSpec
    line: LineSpec | None
    children: tuple[int, ...]
    x0: XBlock
    x1_v: np.ndarray
    lam1: np.ndarray
    y_v: np.ndarray
    y_s: np.ndarray
    y_S: np.ndarray | None
    y_ell: np.ndarray | None
    y_parent_v: np.ndarray | None
    y_child: dict[int, tuple[np.ndarray, np.ndarray]]
    mu_v: np.ndarray
    mu_s: np.ndarray
    mu_S: np.ndarray | None
    mu_ell: np.ndarray | None
    mu_parent_v: np.ndarray | None
    ycache_parent: FlowObservation | None
    ycache_child: dict[int, VoltageObservation]

    @property
    def is_root(self) -> bool:
        return self.line is None


class _Injections:
    """Every phase's cost and injection region, in the order of the
    groups' s slabs: ``box`` holds the positions of the box phases and
    ``disks`` the (position, radius) of the half-disk phases."""

    def __init__(self, buses: list[BusSpec]):
        phases = [(reg, cost) for b in buses for reg, cost in zip(b.regions, b.cost)]
        self.alpha = np.array([cost.alpha for _, cost in phases])
        self.beta = np.array([cost.beta for _, cost in phases])
        boxes = [k for k, (reg, _) in enumerate(phases) if isinstance(reg, Box)]
        self.box = np.array(boxes, dtype=int)
        self.box_bounds = tuple(
            np.array([getattr(phases[k][0], name) for k in boxes])
            for name in ("p_lo", "p_hi", "q_lo", "q_hi")
        )
        self.disks = [(k, reg.s_max) for k, (reg, _) in enumerate(phases) if isinstance(reg, Disk)]


class State:
    """The buffers of one run and their index maps.

    ``pair[e]`` is the x entry that y entry e observes and ``weight[e]``
    its penalty weight; ``den`` sums the weights per x entry. ``v_index``
    lists the entries of the buses' own v in x (and y), in the order of
    ``x1_v`` and ``lam1``, and ``s_index`` those of s, in the order of
    ``injections``. Rows of a group are ordered by descending child
    count, then id, so the buses with a k-th child are a leading prefix
    of each child slot's slab. ``x_shares`` and ``y_shares`` are the
    directed (sender, receiver) bus pairs of the entries that the y-step
    and the x-step read across a tree edge.

    The x-step's maps: ``blocks`` holds, per non-root phase count m, the
    positions in [hat, conj(hat)] of every bus's (2m, 2m) block target
    [[v, S], [S^H, ell]], shape (B, 2m, 2m); ``x_dst`` lists every v, S
    and ell entry of x once and ``x_src`` the position of its value in
    the projected blocks, raveled one class after another, followed by
    the targets (where the root's v is read). ``v_diag`` are the
    positions of the voltage diagonals in ``x1_v``, with their bounds
    ``v_lo``/``v_hi``. ``ysolver`` solves every bus's y-step.
    """

    def __init__(self, model: FeederModel, config: SolverConfig):
        self.model = model
        self._by_id = {b.id: b for b in model.buses}
        self._lines = {ln.bus: ln for ln in model.lines}
        kids = self._kids = model.children

        members: dict[tuple[bool, int], list[int]] = {}
        for b in model.buses:
            members.setdefault((b.id in self._lines, len(b.phases)), []).append(b.id)
        keys = sorted(members)
        rows = [tuple(sorted(members[key], key=lambda i: (-len(kids[i]), i))) for key in keys]
        self._where = {i: (g, r) for g, ids in enumerate(rows) for r, i in enumerate(ids)}

        # x: per group the slabs of v, s and, off the root, S and ell
        x_alloc = _Alloc()
        self._slabs = []
        for (branch, m), ids in zip(keys, rows):
            shapes = [(len(ids), m, m), (len(ids), m)] + [(len(ids), m, m)] * (2 * branch)
            self._slabs.append(_Slabs([x_alloc.take(shape, ids) for shape in shapes]))
        # y: the own copies laid out as x, then per group the parents' copies
        # of (S, ell) and, per child slot, the children's copies of v
        y_alloc = _Alloc(x_alloc)
        for (branch, m), ids, slabs in zip(keys, rows, self._slabs):
            if branch:
                parents = [model.parent[i] for i in ids]
                slabs.flow = [y_alloc.take(slab[1], parents, slab[0]) for slab in slabs.own[2:]]
            for k in range(max(len(kids[i]) for i in ids)):
                holders = [kids[i][k] for i in ids if len(kids[i]) > k]
                slabs.kids.append(y_alloc.take((len(holders), m, m), holders, slabs.own[0][0]))
        v_alloc = _Alloc()
        v_slabs = [v_alloc.take(slabs.own[0][1], ids) for ids, slabs in zip(rows, self._slabs)]

        self.pair = np.concatenate(y_alloc.observes)
        self.v_index = np.concatenate([_entries(slabs.own[0]) for slabs in self._slabs])
        self.s_index = np.concatenate([_entries(slabs.own[1]) for slabs in self._slabs])
        self.injections = _Injections([self._by_id[i] for ids in rows for i in ids])
        self.x = np.zeros(x_alloc.size, dtype=complex)
        self.y = np.zeros(y_alloc.size, dtype=complex)
        self.y_prev = np.zeros(y_alloc.size, dtype=complex)
        self.mu = np.zeros(y_alloc.size, dtype=complex)
        self.x1_v = np.zeros(v_alloc.size, dtype=complex)
        self.lam1 = np.zeros(v_alloc.size, dtype=complex)

        owner_y = np.concatenate(y_alloc.owners)
        owner_x = owner_y[self.pair]
        cross = owner_y != owner_x
        self.y_shares = set(zip(owner_y[cross].tolist(), owner_x[cross].tolist()))
        self.x_shares = {(b, a) for a, b in self.y_shares}

        self._rows = rows
        self._v_slabs = v_slabs
        self.blocks, self.x_dst, self.x_src = _x_step_maps(keys, self._slabs, x_alloc.size)
        diagonals = [np.diagonal(_entries(s).reshape(s[1]), axis1=1, axis2=2) for s in v_slabs]
        self.v_diag = np.concatenate(diagonals, axis=None)
        self.v_lo = np.array([lo for ids in rows for i in ids for lo in self._by_id[i].v_lo])
        self.v_hi = np.array([hi for ids in rows for i in ids for hi in self._by_id[i].v_hi])

        # buses of one y-block signature next to each other, so that they
        # share one stacked operator
        signatures: dict[tuple, list[YContext]] = {}
        for b in model.buses:
            ctx = self._context(b.id)
            signatures.setdefault(y_signature(ctx), []).append(ctx)
        ctxs = [ctx for group in signatures.values() for ctx in group]
        index = [self._y_entries(ctx.bus_id) for ctx in ctxs]
        self.ysolver = YNodeSolver(ctxs, config.rho, index)
        self.weight = np.empty(y_alloc.size)
        for ctx, layout, entries in zip(ctxs, self.ysolver.layouts, index):
            sizes = [end - start for start, end, _ in layout.views]
            self.weight[entries] = np.repeat(y_weights(ctx), sizes)
        self.den = np.bincount(self.pair, self.weight)

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

    def _y_entries(self, i: int) -> np.ndarray:
        """Positions in y of bus i's y-blocks, in its y-solver's layout order:
        v, s, [S, ell, parent v], then (S, ell) of each child."""
        g, r = self._where[i]
        rows = [(slab, r) for slab in self._slabs[g].own]
        if i in self._lines:
            parent = self.model.parent[i]
            par_g, par_r = self._where[parent]
            rows.append((self._slabs[par_g].kids[self._kids[parent].index(i)], par_r))
        for j in self._kids[i]:
            jg, jr = self._where[j]
            rows += [(slab, jr) for slab in self._slabs[jg].flow]
        return np.concatenate([_entries(slab, r) for slab, r in rows])

    def solution(self) -> dict[int, XBlock]:
        """Copies of every bus's primal blocks, by id in feeder order."""
        blocks = {}
        for ids, slabs in zip(self._rows, self._slabs):
            own = [_view(self.x, slab).copy() for slab in slabs.own]
            blocks.update((i, XBlock(*(a[r] for a in own))) for r, i in enumerate(ids))
        return {b.id: blocks[b.id] for b in self.model.buses}

    def bus(self, i: int) -> BusView:
        """Bus i's views of the buffers."""
        g, r = self._where[i]
        slabs = self._slabs[g]
        line = self._lines.get(i)
        kids = self._kids[i]

        def own(buf):
            rows = [_view(buf, slab)[r] for slab in slabs.own]
            return rows + [None] * (4 - len(rows))

        y, mu = own(self.y), own(self.mu)
        y_parent_v = mu_parent_v = ycache_parent = None
        if line is not None:
            par_g, par_r = self._where[line.parent]
            held = self._slabs[par_g].kids[self._kids[line.parent].index(i)]
            y_parent_v, mu_parent_v = (_view(buf, held)[par_r] for buf in (self.y, self.mu))
            ycache_parent = FlowObservation(
                *(_view(buf, slab)[r] for buf in (self.y, self.mu) for slab in slabs.flow)
            )
        y_child = {}
        for j in kids:
            jg, jr = self._where[j]
            y_child[j] = tuple(_view(self.y, slab)[jr] for slab in self._slabs[jg].flow)
        return BusView(
            bus=self._by_id[i],
            line=line,
            children=kids,
            x0=XBlock(*own(self.x)),
            x1_v=_view(self.x1_v, self._v_slabs[g])[r],
            lam1=_view(self.lam1, self._v_slabs[g])[r],
            y_v=y[0],
            y_s=y[1],
            y_S=y[2],
            y_ell=y[3],
            y_parent_v=y_parent_v,
            y_child=y_child,
            mu_v=mu[0],
            mu_s=mu[1],
            mu_S=mu[2],
            mu_ell=mu[3],
            mu_parent_v=mu_parent_v,
            ycache_parent=ycache_parent,
            ycache_child={
                j: VoltageObservation(_view(self.y, slab)[r], _view(self.mu, slab)[r])
                for j, slab in zip(kids, slabs.kids)
            },
        )


@dataclass
class _Slabs:
    """One group's slabs, as (start, shape): its own v, s[, S, ell] in x
    and y, the parents' copies of (S, ell), and per child slot the
    children's copies of v."""

    own: list
    flow: list = field(default_factory=list)
    kids: list = field(default_factory=list)


class _Alloc:
    """Hands out consecutive slabs of one flat buffer.

    Records the bus that owns each entry and, for y, the x entry it
    observes; a y allocator starts after the own copies, laid out as x.
    """

    def __init__(self, own: "_Alloc | None" = None):
        self.size = 0 if own is None else own.size
        self.owners = [] if own is None else list(own.owners)
        self.observes = [] if own is None else [np.arange(own.size)]

    def take(self, shape: tuple[int, ...], owners, observed: int | None = None):
        start = self.size
        count = math.prod(shape)
        self.size += count
        self.owners.append(np.repeat(np.asarray(owners, dtype=int), count // shape[0]))
        if observed is not None:
            self.observes.append(np.arange(observed, observed + count))
        return start, shape


def _view(buf: np.ndarray, slab) -> np.ndarray:
    start, shape = slab
    return buf[start : start + math.prod(shape)].reshape(shape)


def _entries(slab, row: int | None = None) -> np.ndarray:
    """Entry positions of a slab, or of one of its rows."""
    start, shape = slab
    if row is None:
        return np.arange(start, start + math.prod(shape))
    size = math.prod(shape[1:])
    return np.arange(start + row * size, start + (row + 1) * size)


def _x_step_maps(keys, slabs: list[_Slabs], size: int):
    """The x-step's block gathers and its scatter into x (see ``State``);
    ``size`` is the length of x, where the conjugated targets start."""
    blocks, dst, src, root = [], [], [], []
    done = 0  # entries of the projected blocks so far
    for (branch, m), group in zip(keys, slabs):
        v, _, *flow = (_entries(slab).reshape(slab[1]) for slab in group.own)
        if not branch:
            root.append(v)
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
    dst += root
    src += [v + done for v in root]
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

    for ids, slabs in zip(state._rows, state._slabs):
        v, i_line, s = (np.array([arr[i] for i in ids]) for arr in (volt, current, inj))
        x = [_view(state.x, slab) for slab in slabs.own]
        x[0][...] = v[:, :, None] * v.conj()[:, None, :]
        x[1][...] = s
        if len(x) > 2:
            x[2][...] = v[:, :, None] * i_line.conj()[:, None, :]
            x[3][...] = i_line[:, :, None] * i_line.conj()[:, None, :]
    state.x1_v[...] = state.x[state.v_index]
    state.y[...] = state.x[state.pair]
    state.y_prev[...] = state.y
    return state


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


@contextmanager
def _surfaced(iteration: int):
    """Re-raise a kernel's ValueError as a SolverError naming the iteration."""
    try:
        yield
    except ValueError as exc:
        raise SolverError(f"iteration {iteration}: {exc}") from exc


def _project_injections(state: State, s_hat: np.ndarray, rho: float) -> None:
    """Every phase's injection about its target ``s_hat``: the box clamp
    for all box phases at once, then the half-disk projection once per
    DER phase."""
    inj = state.injections
    a1 = inj.alpha + rho
    b1 = inj.beta - rho * s_hat.real
    b2 = -rho * s_hat.imag
    box = inj.box
    s = np.empty_like(s_hat)
    s.real[box], s.imag[box] = project_injection_box(
        a1[box], b1[box], rho, b2[box], *inj.box_bounds
    )
    for k, s_max in inj.disks:
        p = q = 0.0
        if s_max != 0.0:
            p, q = project_injection_disk(float(a1[k]), float(b1[k]), rho, float(b2[k]), s_max)
        s[k] = complex(p, q)
    state.x[state.s_index] = s


def x_update_round(state: State, config: SolverConfig, audit=None, iteration=0):
    """Deliver the observation shares, then update every x_{i0} and x_{i1}."""
    if audit is not None:
        audit.update(state.y_shares)
    with _surfaced(iteration):
        hat = complete_square_x0(
            state.y, state.mu, state.weight, state.pair, state.den, config.rho
        )
        targets = np.concatenate([hat, hat.conj()])
        projected = [solve_x0_matrix(targets[index]) for index in state.blocks]
        state.x[state.x_dst] = np.concatenate(projected + [hat], axis=None)[state.x_src]
        state.x1_v[...] = solve_x1_voltage(
            state.lam1, state.y[state.v_index], state.v_diag, state.v_lo, state.v_hi, config.rho
        )
        _project_injections(state, hat[state.s_index], config.rho)


def y_update_round(state: State, config: SolverConfig, audit=None, iteration=0):
    """Deliver the primal shares, then re-solve every neighborhood observation set."""
    if audit is not None:
        audit.update(state.x_shares)
    v = state.v_index
    mu = state.mu.copy()
    mu[v] += state.lam1
    x = state.weight * state.x[state.pair]
    x[v] += state.x1_v
    np.copyto(state.y_prev, state.y)
    with _surfaced(iteration):
        state.ysolver.solve(state.ysolver.assemble_c(mu, x), state.y)


def multiplier_update_round(state: State, rho: float, iteration=0):
    """Dual ascent: every multiplier moves by rho times its consensus gap."""
    state.lam1 += rho * (state.x1_v - state.y[state.v_index])
    state.mu += rho * (state.x[state.pair] - state.y)


def _sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def compute_residuals(state: State, rho: float) -> tuple[float, float]:
    """Primal gap norm ||x - y|| and scaled dual change rho * ||y - y_prev||."""
    r_sq = _sq(state.x1_v - state.y[state.v_index]) + _sq(state.x[state.pair] - state.y)
    return math.sqrt(r_sq), rho * math.sqrt(_sq(state.y - state.y_prev))


def compute_objective(state: State) -> float:
    """Sum of the phase costs f(p) = alpha/2 p^2 + beta p at the injections."""
    inj = state.injections
    p = state.x[state.s_index].real
    return float((0.5 * inj.alpha * p * p + inj.beta * p).sum())


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
    returns the primal blocks with the full residual history.
    """
    if config is None:
        config = SolverConfig()
    violations = validate_radial(model)
    if violations:
        from .network import FeederValidationError

        raise FeederValidationError(violations)

    state = initialize(model, config)
    tol = config.tol_scale * math.sqrt(len(model))
    audit: set[tuple[int, int]] | None = set() if record_messages else None
    history: list[IterationStats] = []
    x_time = 0.0
    status = "max-iters"
    t_start = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        x_update_round(state, config, audit, k)
        x_time += time.perf_counter() - t0
        y_update_round(state, config, audit, k)
        multiplier_update_round(state, config.rho, k)
        r, s = compute_residuals(state, config.rho)
        history.append(IterationStats(k, r, s, compute_objective(state)))
        if not (math.isfinite(r) and math.isfinite(s)):
            status = "diverged"
            break
        if r <= tol and s <= tol:
            status = "converged"
            break
    wall = time.perf_counter() - t_start
    solution = state.solution()
    return RunResult(
        solution=solution,
        history=history,
        status=status,
        wall_seconds=wall,
        x_round_seconds=x_time,
        n_buses=len(model),
        message_pairs=audit,
    )
