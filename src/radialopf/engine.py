"""Bulk-synchronous ADMM iteration over one agent per bus.

Each agent owns its variable copies, its observations of neighbor
variables, and the multipliers tied to those observations. Data crosses
the tree edges only inside messages: observation shares flow before the
x-step and primal shares flow before the y-step; the multiplier step then
runs on cached values. The engine executes the agents in ascending bus
order, and every reduction runs in that order, so runs are deterministic
bit for bit.
"""

from __future__ import annotations

import math
import time
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
    FlowObservation,
    SelfObservation,
    VoltageObservation,
    XBlock,
    YContext,
    YNodeSolver,
    complete_square_x0,
    project_injection_box,
    project_injection_disk,
    solve_x0_matrix,
    solve_x1_voltage,
)

__all__ = [
    "SolverConfig",
    "IterationStats",
    "AgentState",
    "XShare",
    "YShare",
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
    """Subproblem failure surfaced with its bus and iteration."""


@dataclass(frozen=True)
class SolverConfig:
    rho: float = 1.0
    tol_scale: float = 1e-4
    max_iters: int = 20000

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.tol_scale <= 0:
            raise ValueError("tol_scale must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class IterationStats:
    k: int
    r: float
    s: float
    objective: float


@dataclass(frozen=True)
class XShare:
    """Primal components a neighbor needs for its y-step.

    Parent to child: the parent's voltage matrix. Child to parent: the
    child's branch power and current matrices.
    """

    sender: int
    receiver: int
    v: np.ndarray | None = None
    S: np.ndarray | None = None
    ell: np.ndarray | None = None


@dataclass(frozen=True)
class YShare:
    """Observation and multiplier a neighbor holds about the receiver.

    Parent to child: the flow observation. Child to parent: the voltage
    observation.
    """

    sender: int
    receiver: int
    flow: FlowObservation | None = None
    voltage: VoltageObservation | None = None


@dataclass
class AgentState:
    """Everything bus i owns: primal copies, observations, multipliers, caches."""

    bus: BusSpec
    line: LineSpec | None
    children: tuple[int, ...]
    ysolver: YNodeSolver

    x0: XBlock = None
    x1_v: np.ndarray = None

    # observations owned by this agent
    y_v: np.ndarray = None
    y_s: np.ndarray = None
    y_S: np.ndarray | None = None
    y_ell: np.ndarray | None = None
    y_parent_v: np.ndarray | None = None
    y_child: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    y_prev: list[np.ndarray] = field(default_factory=list)

    # multipliers owned by this agent
    lam1: np.ndarray = None
    mu_v: np.ndarray = None
    mu_s: np.ndarray = None
    mu_S: np.ndarray | None = None
    mu_ell: np.ndarray | None = None
    mu_parent_v: np.ndarray | None = None
    mu_child: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    # latest neighbor payloads
    xcache_parent_v: np.ndarray | None = None
    xcache_child: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    ycache_parent: FlowObservation | None = None
    ycache_child: dict[int, VoltageObservation] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.line is None

    def self_observation(self) -> SelfObservation:
        return SelfObservation(
            self.y_v,
            self.y_s,
            self.y_S,
            self.y_ell,
            self.mu_v,
            self.mu_s,
            self.mu_S,
            self.mu_ell,
        )

    def stacked_y(self) -> list[np.ndarray]:
        out = [self.y_v, self.y_s]
        if not self.is_root:
            out += [self.y_S, self.y_ell, self.y_parent_v]
        for j in sorted(self.y_child):
            out += list(self.y_child[j])
        return out


def _flat_voltage(phases: PhaseSet) -> np.ndarray:
    return np.array([PHASE_REFERENCE[ch] for ch in phases], dtype=complex)


def _initial_injection(bus: BusSpec) -> np.ndarray:
    return np.array([r.initial_point() for r in bus.regions], dtype=complex)


def _build_agents(model: FeederModel, config: SolverConfig) -> dict[int, AgentState]:
    by_id = {b.id: b for b in model.buses}
    lines = {ln.bus: ln for ln in model.lines}
    agents: dict[int, AgentState] = {}
    for bus in model.buses:
        line = lines.get(bus.id)
        kids = model.children[bus.id]
        ctx = YContext(
            bus_id=bus.id,
            phases=bus.phases,
            z=None if line is None else line.z,
            parent_phases=None if line is None else by_id[line.parent].phases,
            children=tuple((j, by_id[j].phases, lines[j].z) for j in kids),
        )
        agents[bus.id] = AgentState(
            bus=bus,
            line=line,
            children=kids,
            ysolver=YNodeSolver(ctx, config.rho),
        )
    return agents


def initialize(model: FeederModel, config: SolverConfig | None = None) -> dict[int, AgentState]:
    """Flat-start state per the zero-impedance heuristic.

    Voltages start at the nominal 120-degree references, injections at a
    point of their region, and branch currents accumulate bottom-up so
    that every line carries the sum of the injection currents below it.
    Observations start equal to the primal copies and multipliers at zero.
    """
    if config is None:
        config = SolverConfig()
    agents = _build_agents(model, config)
    order = sorted(agents)

    volt = {i: _flat_voltage(agents[i].bus.phases) for i in order}
    inj = {i: _initial_injection(agents[i].bus) for i in order}

    # bottom-up accumulation of branch currents (children before parents)
    current: dict[int, np.ndarray] = {}
    post = []
    stack = [0]
    while stack:
        i = stack.pop()
        post.append(i)
        stack.extend(agents[i].children)
    for i in reversed(post):
        agent = agents[i]
        amps = np.conj(inj[i] / volt[i])
        for j in agent.children:
            child_phases = agents[j].bus.phases
            idx = child_phases.indices_in(agent.bus.phases)
            amps[idx] += current[j]
        current[i] = amps

    for i in order:
        agent = agents[i]
        v = np.outer(volt[i], volt[i].conj())
        agent.x0 = XBlock(v=v, s=inj[i].copy())
        if not agent.is_root:
            amps = current[i]
            agent.x0.S = np.outer(volt[i], amps.conj())
            agent.x0.ell = np.outer(amps, amps.conj())
        agent.x1_v = v.copy()

    for i in order:
        agent = agents[i]
        v = agent.x0.v
        agent.y_v = v.copy()
        agent.y_s = agent.x0.s.copy()
        n = len(agent.bus.phases)
        agent.lam1 = np.zeros((n, n), dtype=complex)
        agent.mu_v = np.zeros((n, n), dtype=complex)
        agent.mu_s = np.zeros(n, dtype=complex)
        if not agent.is_root:
            agent.y_S = agent.x0.S.copy()
            agent.y_ell = agent.x0.ell.copy()
            agent.mu_S = np.zeros((n, n), dtype=complex)
            agent.mu_ell = np.zeros((n, n), dtype=complex)
            parent = agents[agent.line.parent]
            mp = len(parent.bus.phases)
            agent.y_parent_v = np.outer(volt[parent.bus.id], volt[parent.bus.id].conj())
            agent.mu_parent_v = np.zeros((mp, mp), dtype=complex)
            agent.xcache_parent_v = agent.y_parent_v.copy()
        for j in agent.children:
            child = agents[j]
            agent.y_child[j] = (child.x0.S.copy(), child.x0.ell.copy())
            nc = len(child.bus.phases)
            agent.mu_child[j] = (
                np.zeros((nc, nc), dtype=complex),
                np.zeros((nc, nc), dtype=complex),
            )
            agent.xcache_child[j] = (child.x0.S.copy(), child.x0.ell.copy())

    _deliver_y_shares(agents, order, None)
    return agents


# ---------------------------------------------------------------------------
# message rounds
# ---------------------------------------------------------------------------


def _deliver_y_shares(agents, order, audit):
    for i in order:
        agent = agents[i]
        if not agent.is_root:
            parent = agents[agent.line.parent]
            msg = YShare(
                sender=i,
                receiver=parent.bus.id,
                voltage=VoltageObservation(agent.y_parent_v, agent.mu_parent_v),
            )
            if audit is not None:
                audit.add((msg.sender, msg.receiver))
            parent.ycache_child[i] = msg.voltage
        for j in agent.children:
            s_obs, ell_obs = agent.y_child[j]
            mu_s_obs, mu_ell_obs = agent.mu_child[j]
            msg = YShare(
                sender=i,
                receiver=j,
                flow=FlowObservation(s_obs, ell_obs, mu_s_obs, mu_ell_obs),
            )
            if audit is not None:
                audit.add((msg.sender, msg.receiver))
            agents[j].ycache_parent = msg.flow


def _deliver_x_shares(agents, order, audit):
    for i in order:
        agent = agents[i]
        if not agent.is_root:
            msg = XShare(
                sender=i,
                receiver=agent.line.parent,
                S=agent.x0.S,
                ell=agent.x0.ell,
            )
            if audit is not None:
                audit.add((msg.sender, msg.receiver))
            agents[msg.receiver].xcache_child[i] = (msg.S, msg.ell)
        for j in agent.children:
            msg = XShare(sender=i, receiver=j, v=agent.x0.v)
            if audit is not None:
                audit.add((msg.sender, msg.receiver))
            agents[j].xcache_parent_v = msg.v


def _x_update_agent(agent: AgentState, rho: float) -> None:
    bus = agent.bus
    if set(agent.ycache_child) != set(agent.children) or (
        not agent.is_root and agent.ycache_parent is None
    ):
        raise ValueError(f"bus {bus.id}: missing neighbor observation")
    child_obs = [agent.ycache_child[j] for j in sorted(agent.ycache_child)]
    hat = complete_square_x0(
        agent.self_observation(), agent.ycache_parent, child_obs, rho
    )
    if agent.is_root:
        v_new, S_new, ell_new = hat.v_hat, None, None
    else:
        v_new, S_new, ell_new = solve_x0_matrix(hat)

    s_new = np.empty(len(bus.phases), dtype=complex)
    for t, region in enumerate(bus.regions):
        cost = bus.cost[t]
        a1 = cost.alpha + rho
        b1 = cost.beta - rho * hat.s_hat[t].real
        a2 = rho
        b2 = -rho * hat.s_hat[t].imag
        if isinstance(region, Box):
            p, q = project_injection_box(
                a1, b1, a2, b2, region.p_lo, region.p_hi, region.q_lo, region.q_hi
            )
        elif isinstance(region, Disk):
            if region.s_max == 0.0:
                p, q = 0.0, 0.0
            else:
                p, q = project_injection_disk(a1, b1, a2, b2, region.s_max)
        else:  # pragma: no cover - regions are a closed union
            raise SolverError(f"bus {bus.id}: unknown region {region!r}")
        s_new[t] = complex(p, q)

    agent.x0 = XBlock(v=v_new, s=s_new, S=S_new, ell=ell_new)
    agent.x1_v = solve_x1_voltage(agent.lam1, agent.y_v, bus.v_lo, bus.v_hi, rho)


def _y_update_agent(agent: AgentState, rho: float) -> None:
    solver = agent.ysolver
    c = solver.assemble_c(
        agent.x0,
        agent.x1_v,
        agent.self_observation(),
        agent.lam1,
        agent.mu_parent_v,
        agent.xcache_parent_v,
        agent.mu_child,
        agent.xcache_child,
    )
    local = solver.solve(c)
    agent.y_prev = agent.stacked_y()
    agent.y_v = local.v_self
    agent.y_s = local.s_self
    if not agent.is_root:
        agent.y_S = local.S_self
        agent.y_ell = local.ell_self
        agent.y_parent_v = local.v_parent
    agent.y_child = {j: local.child_flows[j] for j in agent.children}


def _multiplier_update_agent(agent: AgentState, rho: float) -> None:
    agent.lam1 = agent.lam1 + rho * (agent.x1_v - agent.y_v)
    agent.mu_v = agent.mu_v + rho * (agent.x0.v - agent.y_v)
    agent.mu_s = agent.mu_s + rho * (agent.x0.s - agent.y_s)
    if not agent.is_root:
        agent.mu_S = agent.mu_S + rho * (agent.x0.S - agent.y_S)
        agent.mu_ell = agent.mu_ell + rho * (agent.x0.ell - agent.y_ell)
        agent.mu_parent_v = agent.mu_parent_v + rho * (
            agent.xcache_parent_v - agent.y_parent_v
        )
    for j in agent.children:
        mu_S_j, mu_ell_j = agent.mu_child[j]
        S_j, ell_j = agent.xcache_child[j]
        y_S_j, y_ell_j = agent.y_child[j]
        agent.mu_child[j] = (
            mu_S_j + rho * (S_j - y_S_j),
            mu_ell_j + rho * (ell_j - y_ell_j),
        )


def _run_round(agents, order, fn, rho, iteration):
    try:
        for i in order:
            fn(agents[i], rho)
    except ValueError as exc:
        raise SolverError(f"iteration {iteration}: {exc}") from exc


def x_update_round(agents, config: SolverConfig, audit=None, iteration=0):
    """Refresh observation shares, then update every x_{i0} and x_{i1}."""
    order = sorted(agents)
    _deliver_y_shares(agents, order, audit)
    _run_round(agents, order, _x_update_agent, config.rho, iteration)


def y_update_round(agents, config: SolverConfig, audit=None, iteration=0):
    """Refresh primal shares, then re-solve every neighborhood observation set."""
    order = sorted(agents)
    _deliver_x_shares(agents, order, audit)
    _run_round(agents, order, _y_update_agent, config.rho, iteration)


def multiplier_update_round(agents, rho: float, iteration=0):
    """Dual ascent: every multiplier moves by rho times its consensus gap."""
    order = sorted(agents)
    _run_round(agents, order, _multiplier_update_agent, rho, iteration)


def _sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def compute_residuals(agents, rho: float) -> tuple[float, float]:
    """Primal gap norm ||x - y|| and scaled dual change rho * ||y - y_prev||.

    Sums run in ascending bus order, so every run reduces in the same order.
    """
    r_sq = 0.0
    s_sq = 0.0
    for i in sorted(agents):
        agent = agents[i]
        r_sq += _sq(agent.x1_v - agent.y_v)
        r_sq += _sq(agent.x0.v - agent.y_v)
        r_sq += _sq(agent.x0.s - agent.y_s)
        if not agent.is_root:
            r_sq += _sq(agent.x0.S - agent.y_S)
            r_sq += _sq(agent.x0.ell - agent.y_ell)
            r_sq += _sq(agent.xcache_parent_v - agent.y_parent_v)
        for j in agent.children:
            S_j, ell_j = agent.xcache_child[j]
            y_S_j, y_ell_j = agent.y_child[j]
            r_sq += _sq(S_j - y_S_j)
            r_sq += _sq(ell_j - y_ell_j)
        if agent.y_prev:
            for old, new in zip(agent.y_prev, agent.stacked_y()):
                s_sq += _sq(new - old)
    return math.sqrt(r_sq), rho * math.sqrt(s_sq)


def compute_objective(agents) -> float:
    total = 0.0
    for i in sorted(agents):
        agent = agents[i]
        for t, cost in enumerate(agent.bus.cost):
            total += cost.value(float(agent.x0.s[t].real))
    return total


@dataclass
class RunResult:
    solution: dict[int, XBlock]
    history: list[IterationStats]
    status: str
    wall_seconds: float
    x_round_seconds: float
    y_round_seconds: float
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

    agents = initialize(model, config)
    tol = config.tol_scale * math.sqrt(len(model))
    audit: set[tuple[int, int]] | None = set() if record_messages else None
    history: list[IterationStats] = []
    x_time = 0.0
    y_time = 0.0
    status = "max-iters"
    t_start = time.perf_counter()
    for k in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        x_update_round(agents, config, audit, k)
        t1 = time.perf_counter()
        y_update_round(agents, config, audit, k)
        t2 = time.perf_counter()
        multiplier_update_round(agents, config.rho, k)
        x_time += t1 - t0
        y_time += t2 - t1
        r, s = compute_residuals(agents, config.rho)
        history.append(IterationStats(k, r, s, compute_objective(agents)))
        if not (math.isfinite(r) and math.isfinite(s)):
            status = "diverged"
            break
        if r <= tol and s <= tol:
            status = "converged"
            break
    wall = time.perf_counter() - t_start
    solution = {i: agents[i].x0.copy() for i in agents}
    return RunResult(
        solution=solution,
        history=history,
        status=status,
        wall_seconds=wall,
        x_round_seconds=x_time,
        y_round_seconds=y_time,
        n_buses=len(model),
        message_pairs=audit,
    )
