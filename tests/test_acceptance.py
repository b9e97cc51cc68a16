"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the topology sweep in criterion 7 dominates the runtime.
"""

import math
import time

import numpy as np
from conftest import bus_blocks, direct_penalty

from radialopf.engine import SolverConfig, State, run
from radialopf.hermitian import inner, psd_project
from radialopf.network import (
    Box,
    BusSpec,
    Disk,
    FeederModel,
    LineSpec,
    ObjectiveCoeffs,
    PhaseSet,
    TopologyTemplate,
    generate_topology,
)
from radialopf.subproblems import (
    YContext,
    YNodeSolver,
    complete_square_x0,
    disk_case,
    project_injection_box,
    project_injection_disk,
    solve_disk_multiplier,
)
from radialopf.verify import brute_force_opf, check_bfm_feasibility, check_rank1

INF = float("inf")


def rand_herm(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (b + b.conj().T)


def rand_cmat(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def rand_cvec(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_criterion_1_psd_projection():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        w = rand_herm(rng, n)
        x = psd_project(w)
        assert np.linalg.eigvalsh(x).min() >= -1e-10
        dist = np.linalg.norm(x - w)
        lams = np.linalg.eigvalsh(w)
        expected_sq = float(np.sum(lams[lams <= 0] ** 2))
        assert abs(dist**2 - expected_sq) <= 1e-8
        b = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
        candidates = b @ b.conj().transpose(0, 2, 1)
        cand_dists = np.linalg.norm(candidates - w, axis=(1, 2))
        assert dist <= cand_dists.min() + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: PSD projection optimality ({elapsed:.2f}s)")


def grid1d(lo, hi, step):
    return np.append(np.arange(lo, hi, step), hi)


def box_oracle(a1, b1, a2, b2, lo1, hi1, lo2, hi2):
    ps = grid1d(lo1, hi1, 1e-3)
    qs = grid1d(lo2, hi2, 1e-3)
    return float((0.5 * a1 * ps**2 + b1 * ps).min() + (0.5 * a2 * qs**2 + b2 * qs).min())


def disk_oracle(a1, b1, a2, b2, c):
    def scan(p_lo, p_hi, q_lo, q_hi, step):
        ps = grid1d(max(p_lo, 0.0), min(p_hi, c), step)
        qs = grid1d(max(q_lo, -c), min(q_hi, c), step)
        pp, qq = np.meshgrid(ps, qs, indexing="ij")
        mask = pp**2 + qq**2 <= c * c
        if not mask.any():
            return None
        obj = 0.5 * a1 * pp**2 + b1 * pp + 0.5 * a2 * qq**2 + b2 * qq
        obj = np.where(mask, obj, np.inf)
        k = np.unravel_index(np.argmin(obj), obj.shape)
        return float(obj[k]), float(pp[k]), float(qq[k])

    coarse = c / 60.0
    best, p0, q0 = scan(0.0, c, -c, c, coarse)
    fine = scan(p0 - 3 * coarse, p0 + 3 * coarse, q0 - 3 * coarse, q0 + 3 * coarse, 1e-3)
    if fine is not None:
        best = min(best, fine[0])
    return best


def test_criterion_2_injection_projections():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()

    for _ in range(1000):
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        b1, b2 = rng.uniform(-2.0, 2.0, 2)
        lo1, lo2 = rng.uniform(-1.0, 0.0, 2)
        hi1 = lo1 + rng.uniform(0.05, 1.5)
        hi2 = lo2 + rng.uniform(0.05, 1.5)
        p, q = project_injection_box(a1, b1, a2, b2, lo1, hi1, lo2, hi2)
        assert lo1 <= p <= hi1 and lo2 <= q <= hi2
        obj = 0.5 * a1 * p * p + b1 * p + 0.5 * a2 * q * q + b2 * q
        assert obj <= box_oracle(a1, b1, a2, b2, lo1, hi1, lo2, hi2) + 1e-5

    case_counts = {1: 0, 2: 0, 3: 0}
    for k in range(1000):
        a1, a2 = rng.uniform(0.2, 3.0, 2)
        c = float(rng.uniform(0.3, 1.2))
        if k % 3 == 0:
            b1 = rng.uniform(0.0, 2.0)  # force case 1
            b2 = rng.uniform(-2.0, 2.0)
        elif k % 3 == 1:
            b1 = -rng.uniform(1.0, 3.0) * a1 * c  # push outside: case 3 likely
            b2 = rng.uniform(-2.0, 2.0)
        else:
            b1, b2 = rng.uniform(-2.0, 2.0, 2)
        case = disk_case(a1, b1, a2, b2, c)
        case_counts[case] += 1
        p, q = project_injection_disk(a1, b1, a2, b2, c)
        assert p >= 0.0 and p * p + q * q <= c * c + 2e-12
        if case == 3:
            lam = solve_disk_multiplier(a1, b1, a2, b2, c)
            g = (b1 / (a1 + 2 * lam)) ** 2 + (b2 / (a2 + 2 * lam)) ** 2 - c * c
            assert abs(g) <= 1e-10
        obj = 0.5 * a1 * p * p + b1 * p + 0.5 * a2 * q * q + b2 * q
        assert obj <= disk_oracle(a1, b1, a2, b2, c) + 1e-5
    assert all(count >= 50 for count in case_counts.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 2 PASS: injection projections vs grid oracle, "
        f"disk cases {case_counts} ({elapsed:.2f}s)"
    )


def random_context(rng):
    m = int(rng.integers(1, 4))
    nc = int(rng.integers(0, 4))
    root = nc > 0 and bool(rng.integers(0, 2))
    phases = PhaseSet("abc"[:m])
    if root:
        z = None
        parent_phases = None
    else:
        mp = int(rng.integers(m, 4))
        parent_phases = PhaseSet("abc"[:mp])
        z = rand_cmat(rng, m, scale=0.05)
    children = tuple(
        (10 + k, PhaseSet("abc"[: int(rng.integers(1, m + 1))]), None)
        for k in range(nc)
    )
    children = tuple(
        (cid, cph, rand_cmat(rng, len(cph), scale=0.05)) for cid, cph, _ in children
    )
    return YContext(bus_id=1, phases=phases, z=z, parent_phases=parent_phases, children=children)


def test_criterion_3_y_update_closed_form():
    rng = np.random.default_rng(103)
    for _ in range(500):
        ctx = random_context(rng)
        solver = YNodeSolver([ctx], rho=float(rng.uniform(0.4, 2.5)))
        y = solver.y
        c = rng.standard_normal(2 * len(y))
        solver.c[...] = c
        solver.solve()
        theta = y.view(float)

        a = solver.a_mat[0]
        nrows, ncols = a.shape
        kkt = np.zeros((ncols + nrows, ncols + nrows))
        kkt[:ncols, :ncols] = np.diag(solver.m_diag[0])
        kkt[:ncols, ncols:] = a.T
        kkt[ncols:, :ncols] = a
        ref = np.linalg.solve(kkt, np.concatenate([-c, np.zeros(nrows)]))[:ncols]

        assert np.max(np.abs(theta - ref)) <= 1e-8
        assert np.max(np.abs(a @ theta)) <= 1e-10
    print("criterion 3 PASS: y-update closed form matches KKT solve")


def herm_directions(m):
    for k in range(m):
        e = np.zeros((m, m), dtype=complex)
        e[k, k] = 1.0
        yield e
    for k in range(m):
        for l in range(k + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = e[l, k] = 1.0 / math.sqrt(2.0)
            yield e
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = 1j / math.sqrt(2.0)
            e[l, k] = -1j / math.sqrt(2.0)
            yield e


def cmat_directions(m):
    for k in range(m):
        for l in range(m):
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = 1.0
            yield e
            e = np.zeros((m, m), dtype=complex)
            e[k, l] = 1j
            yield e


def cvec_directions(m):
    for k in range(m):
        e = np.zeros(m, dtype=complex)
        e[k] = 1.0
        yield e
        e = np.zeros(m, dtype=complex)
        e[k] = 1j
        yield e


def observed_bus(rng, m, nc, rho):
    """A small state whose bus 1 hangs under the root and has nc leaf
    children, all with m phases, with random observations and multipliers
    of bus 1's x entries; returns the state."""
    ph = PhaseSet("abc"[:m])
    free = tuple(Box(-INF, INF, -INF, INF) for _ in range(m))
    buses = tuple(
        BusSpec(i, ph, (0.9,) * m, (1.1,) * m, free, loss_cost(m)) for i in range(nc + 2)
    )
    z = (0.01 + 0.02j) * np.eye(m)
    lines = tuple(LineSpec(i, 0 if i == 1 else 1, z) for i in range(1, nc + 2))
    state = State(FeederModel(buses, lines), SolverConfig(rho=rho))
    me = bus_blocks(state, 1)
    y, mu = me.y, me.mu
    par = bus_blocks(state, 0)
    (par_S, par_ell), (par_mu_S, par_mu_ell) = par.y.child_flows[1], par.mu.child_flows[1]
    for a in (y.v_self, mu.v_self, y.ell_self, mu.ell_self, par_ell, par_mu_ell):
        a[...] = rand_herm(rng, m)
    for a in (y.s_self, mu.s_self):
        a[...] = rand_cvec(rng, m)
    for a in (y.S_self, mu.S_self, par_S, par_mu_S):
        a[...] = rand_cmat(rng, m)
    for j in range(2, nc + 2):
        kid = bus_blocks(state, j)
        kid.y.v_parent[...], kid.mu.v_parent[...] = rand_herm(rng, m), rand_herm(rng, m)
    return state


def test_criterion_4_square_completion_gradient():
    rng = np.random.default_rng(104)
    h = 1e-6
    points = 0
    while points < 100:
        m = int(rng.integers(1, 4))
        nc = int(rng.integers(0, 4))
        rho = float(rng.uniform(0.4, 2.5))
        state = observed_bus(rng, m, nc, rho)
        state.x[...] = complete_square_x0(
            state.y[state.obs], state.mu, state.weight, state.pair_slots, state.den, rho
        )
        hat = bus_blocks(state, 1).x0

        v = rand_herm(rng, m)
        S = rand_cmat(rng, m)
        ell = rand_herm(rng, m)
        s = rand_cvec(rng, m)
        scale = rho * (nc + 2.0)

        def fd(dv=None, dS=None, dell=None, ds=None):
            def at(t):
                return direct_penalty(
                    v + t * dv if dv is not None else v,
                    S + t * dS if dS is not None else S,
                    ell + t * dell if dell is not None else ell,
                    s + t * ds if ds is not None else s,
                    state,
                    1,
                    rho,
                )

            return (at(h) - at(-h)) / (2.0 * h)

        for e in herm_directions(m):
            assert abs(fd(dv=e) - scale * inner(e, v - hat.v)) <= 1e-6
            assert abs(fd(dell=e) - scale * inner(e, ell - hat.ell)) <= 1e-6
        for e in cmat_directions(m):
            assert abs(fd(dS=e) - 2.0 * scale * inner(e, S - hat.S)) <= 1e-6
        for e in cvec_directions(m):
            assert abs(fd(ds=e) - rho * inner(e, s - hat.s)) <= 1e-6
        points += 1
    print("criterion 4 PASS: square completion matches direct gradients")


def loss_cost(n):
    return tuple(ObjectiveCoeffs(0.0, 1.0) for _ in range(n))


def two_bus_model():
    root = BusSpec(
        0, PhaseSet("a"), (1.0,), (1.0,), (Box(-INF, INF, -INF, INF),), loss_cost(1)
    )
    child = BusSpec(
        1,
        PhaseSet("a"),
        (0.9025,),
        (1.1025,),
        (Box(-0.35, -0.25, -0.25, 0.25),),
        loss_cost(1),
    )
    return FeederModel((root, child), (LineSpec(1, 0, np.array([[0.05 + 0.1j]])),))


def test_criterion_5_two_bus_optimality():
    t0 = time.perf_counter()
    model = two_bus_model()
    result = run(model, SolverConfig(rho=1.0, tol_scale=1e-6, max_iters=20000))
    assert result.converged
    last = result.history[-1]
    bound = 1e-4 * math.sqrt(2.0)
    assert last.r <= bound and last.s <= bound

    best, _ = brute_force_opf(model, grid_step=1e-3)
    assert abs(last.objective - best) <= 1e-3 * abs(best)

    exact = check_rank1(result.solution, model)
    assert exact.max_ratio <= 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"criterion 5 PASS: 2-bus objective {last.objective:.6g} vs oracle "
        f"{best:.6g}, rank ratio {exact.max_ratio:.1e} ({elapsed:.2f}s)"
    )


def four_bus_model():
    z3 = np.array(
        [
            [0.006 + 0.012j, 0.002 + 0.004j, 0.002 + 0.004j],
            [0.002 + 0.004j, 0.006 + 0.012j, 0.002 + 0.004j],
            [0.002 + 0.004j, 0.002 + 0.004j, 0.006 + 0.012j],
        ]
    )
    z2 = np.array([[0.008 + 0.014j, 0.002 + 0.005j], [0.002 + 0.005j, 0.008 + 0.014j]])
    z1 = np.array([[0.009 + 0.016j]])
    abc, ab, c = PhaseSet("abc"), PhaseSet("ab"), PhaseSet("c")
    lo3, hi3 = (0.9025,) * 3, (1.1025,) * 3
    root = BusSpec(
        0, abc, (1.0,) * 3, (1.0,) * 3,
        tuple(Box(-INF, INF, -INF, INF) for _ in range(3)), loss_cost(3),
    )
    b1 = BusSpec(
        1, abc, lo3, hi3,
        (
            Box(-0.03, -0.03, -0.01, 0.01),
            Box(-0.02, -0.02, -0.008, 0.008),
            Box(-0.04, -0.04, -0.012, 0.012),
        ),
        loss_cost(3),
    )
    b2 = BusSpec(
        2, ab, (0.9025,) * 2, (1.1025,) * 2,
        (Disk(0.03), Box(-0.025, -0.025, -0.01, 0.01)), loss_cost(2),
    )
    b3 = BusSpec(
        3, c, (0.9025,), (1.1025,), (Box(-0.035, -0.035, -0.01, 0.01),), loss_cost(1)
    )
    return FeederModel(
        (root, b1, b2, b3),
        (LineSpec(1, 0, z3), LineSpec(2, 1, z2), LineSpec(3, 1, z1)),
    )


def test_criterion_6_four_bus_feasibility():
    model = four_bus_model()
    result = run(model, SolverConfig(rho=1.0, tol_scale=1e-4, max_iters=20000))
    assert result.converged
    assert len(result.history) <= 20000

    report = check_bfm_feasibility(result.solution, model, tol=1e-3)
    assert report.ok, report.violations()

    lo, hi = 0.95**2, 1.05**2
    for i, blk in result.solution.items():
        if i == 0:
            continue
        diag = blk.v.diagonal().real
        assert np.all(diag >= lo - 1e-6) and np.all(diag <= hi + 1e-6)
    print(
        f"criterion 6 PASS: 4-bus three-phase feasible in "
        f"{len(result.history)} iterations, max residual {report.max_residual:.1e}"
    )


def test_criterion_7_topology_trend():
    t0 = time.perf_counter()
    sizes = (5, 10, 15, 20, 25, 30)
    template = TopologyTemplate()
    iters = {}
    for kind in ("line", "fat-tree"):
        for size in sizes:
            model = generate_topology(kind, size, template)
            result = run(model, SolverConfig(rho=1.0, max_iters=20000))
            assert result.converged, (kind, size)
            iters[(kind, size)] = len(result.history)
    elapsed = time.perf_counter() - t0

    line = [iters[("line", s)] for s in sizes]
    fat = [iters[("fat-tree", s)] for s in sizes]
    assert all(a < b for a, b in zip(line, line[1:])), line
    for s, l, f in zip(sizes, line, fat):
        if s >= 10:
            assert l > f, (s, l, f)
    assert elapsed < 600.0
    print(
        f"criterion 7 PASS: line iters {line} dominate fat-tree {fat} ({elapsed:.0f}s)"
    )


def test_criterion_8_per_iteration_cost():
    model = generate_topology("fat-tree", 13, TopologyTemplate(phases="abc"))
    result = run(model, SolverConfig(rho=1.0, max_iters=300))
    per_bus = result.x_round_seconds / (len(result.history) * 13)
    assert per_bus <= 1e-3
    print(
        f"criterion 8 PASS: x-update {per_bus * 1e6:.0f}us per bus per iteration "
        f"on the 13-bus three-phase model"
    )
