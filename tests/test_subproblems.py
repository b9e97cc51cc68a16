import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    HatConstants,
    bus_blocks,
    copy_block,
    direct_penalty,
    hermitian_blocks,
    inner,
    y_roles,
)

from radialopf import subproblems
from radialopf.engine import SolverConfig, State, _Injections, _project_injections, run
from radialopf.network import (
    Box,
    BusSpec,
    FeederModel,
    LineSpec,
    ObjectiveCoeffs,
    PhaseSet,
    TopologyTemplate,
    generate_topology,
    loads_feeder,
    phase_lift,
    phase_project,
)
from radialopf.subproblems import (
    XBlock,
    YContext,
    YNodeSolver,
    complete_square_x0,
    disk_case,
    interleave,
    named_blocks,
    project_injection_box,
    project_injection_disk,
    solve_disk_multiplier,
    solve_x0_matrix,
    solve_x1_voltage,
    y_blocks,
    y_signature,
)

INF = math.inf
RECORDS = json.loads((Path(__file__).parent / "data" / "engine_equivalence.json").read_text())


def equivalence_feeder(name):
    """A feeder of the engine equivalence records."""
    return loads_feeder(json.dumps(RECORDS[name]["feeder"]))


def rand_herm(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (b + b.conj().T)


def rand_cmat(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def rand_cvec(rng, n, scale=1.0):
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def rand_mults(rng, m, root=False):
    """A bus's random multipliers of its own (v, s[, S, ell])."""
    mu = XBlock(rand_herm(rng, m), rand_cvec(rng, m))
    if not root:
        mu.S, mu.ell = rand_cmat(rng, m), rand_herm(rng, m)
    return mu


def feeder(parents, phases):
    """Bus k + 1 hangs under bus parents[k]; every bus has ``phases``."""
    ph = PhaseSet(phases)
    m = len(ph)
    free = tuple(Box(-math.inf, math.inf, -math.inf, math.inf) for _ in range(m))
    cost = tuple(ObjectiveCoeffs(0.0, 1.0) for _ in range(m))
    buses = tuple(
        BusSpec(i, ph, (0.9,) * m, (1.1,) * m, free, cost) for i in range(len(parents) + 1)
    )
    z = (0.01 + 0.02j) * np.eye(m)
    lines = tuple(LineSpec(k + 1, p, z) for k, p in enumerate(parents))
    return FeederModel(buses, lines)


def one_bus_state(m, nc, rho=1.0):
    """Bus 1 under the root with nc leaf children, all with m phases."""
    return State(feeder([0] + [1] * nc, "abc"[:m]), SolverConfig(rho=rho))


def observations(state, i):
    """The observations of bus i's x entries and their scaled multipliers:
    its own copies, the parent's copy of its (S, ell), then each child's
    copy of its v."""
    me = bus_blocks(state, i)
    y, u = me.y, me.u
    arrays = [y.v_self, y.s_self, u.v_self, u.s_self]
    if not me.is_root:
        par = bus_blocks(state, me.parent)
        (par_S, par_ell), (par_u_S, par_u_ell) = par.y.child_flows[i], par.u.child_flows[i]
        arrays += [y.S_self, y.ell_self, u.S_self, u.ell_self]
        arrays += [par_S, par_ell, par_u_S, par_u_ell]
    for j in me.children:
        kid = bus_blocks(state, j)
        arrays += [kid.y.v_parent, kid.u.v_parent]
    return arrays


def fill_observations(rng, state, i):
    """Random observations and scaled multipliers of bus i's x entries."""
    me = bus_blocks(state, i)
    m = len(me.bus.phases)
    for a in observations(state, i):
        if a.ndim == 1:
            a[...] = rand_cvec(rng, m)
        else:
            a[...] = rand_herm(rng, m)
    if not me.is_root:
        par = bus_blocks(state, me.parent)
        for a in (me.y.S_self, me.u.S_self, par.y.child_flows[i][0], par.u.child_flows[i][0]):
            a[...] = rand_cmat(rng, m)


def targets(state):
    """complete_square_x0 over the state's buffers, each bus's targets
    (v, s[, S, ell]) read through its views."""
    complete_square_x0(
        state.y[state.obs], state.u, state.weight, state.pair_slots, state.den, state.x
    )
    return {b.id: copy_block(bus_blocks(state, b.id).x0) for b in state.model.buses}


class TestCompleteSquare:
    def test_consensus_is_fixed(self):
        # all observations equal and all multipliers zero
        state = one_bus_state(2, nc=2, rho=1.3)
        state.y[...] = 0.7
        state.u[...] = 0.0
        obs = bus_blocks(state, 1).y
        hat = targets(state)[1]
        assert np.allclose(hat.v, obs.v_self)
        assert np.allclose(hat.S, obs.S_self)
        assert np.allclose(hat.ell, obs.ell_self)
        assert np.allclose(hat.s, obs.s_self)

    def test_leaf_voltage_target(self):
        # leaf: only the own observation (weight 2) sees v, so the target
        # is v_obs - mu_v / (2 rho)
        rng = np.random.default_rng(0)
        rho = 0.8
        state = one_bus_state(2, nc=0, rho=rho)
        fill_observations(rng, state, 1)
        obs = bus_blocks(state, 1)
        mu_v = rho * obs.u.v_self
        hat = targets(state)[1]
        assert np.allclose(hat.v, obs.y.v_self - mu_v / (2 * rho))

    def test_injection_target(self):
        rng = np.random.default_rng(1)
        rho = 2.0
        state = one_bus_state(3, nc=0, rho=rho)
        fill_observations(rng, state, 1)
        obs = bus_blocks(state, 1)
        mu_s = rho * obs.u.s_self
        hat = targets(state)[1]
        assert np.allclose(hat.s, obs.y.s_self - mu_s / rho)

    def test_hat_targets_are_hermitian(self):
        rng = np.random.default_rng(2)
        state = one_bus_state(3, nc=1)
        fill_observations(rng, state, 1)
        hat = targets(state)[1]
        assert np.array_equal(hat.v, hat.v.conj().T)
        assert np.array_equal(hat.ell, hat.ell.conj().T)

    def test_stack_matches_each_bus_alone(self):
        # buses 1-4 with 3, 2, 2 and 0 children complete their squares in
        # one sum over the whole state; each matches a state of its own
        rng = np.random.default_rng(24)
        m, rho = 2, 0.7
        state = State(feeder([0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3], "ab"), SolverConfig(rho=rho))
        for i in (1, 2, 3, 4):
            fill_observations(rng, state, i)
        hat = targets(state)
        for i in (1, 2, 3, 4):
            alone = one_bus_state(m, len(state.model.children[i]), rho)
            for src, dst in zip(observations(state, i), observations(alone, 1), strict=True):
                dst[...] = src
            one = targets(alone)[1]
            for name in ("v", "s", "S", "ell"):
                assert np.array_equal(getattr(hat[i], name), getattr(one, name))


def completed_penalty(v, S, ell, s, hat, nc, rho):
    block = np.block([[v, S], [S.conj().T, ell]])
    target = np.block([[hat.v, hat.S], [hat.S.conj().T, hat.ell]])
    dist = np.linalg.norm(block - target) ** 2
    return 0.5 * rho * (nc + 2.0) * dist + 0.5 * rho * np.linalg.norm(s - hat.s) ** 2


class TestSquareCompletionIdentity:
    def test_value_differences_match(self):
        # the direct and completed forms differ by a constant only
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            nc = int(rng.integers(0, 4))
            rho = float(rng.uniform(0.3, 3.0))
            state = one_bus_state(m, nc, rho)
            fill_observations(rng, state, 1)
            hat = targets(state)[1]

            def pt():
                return (
                    rand_herm(rng, m),
                    rand_cmat(rng, m),
                    rand_herm(rng, m),
                    rand_cvec(rng, m),
                )

            v1, S1, l1, s1 = pt()
            v2, S2, l2, s2 = pt()
            d_direct = direct_penalty(v1, S1, l1, s1, state, 1, rho) - direct_penalty(
                v2, S2, l2, s2, state, 1, rho
            )
            d_completed = completed_penalty(v1, S1, l1, s1, hat, nc, rho) - (
                completed_penalty(v2, S2, l2, s2, hat, nc, rho)
            )
            assert d_direct == pytest.approx(d_completed, abs=1e-8)


def stack(*hats):
    """Several buses' hat constants as one stack."""
    return HatConstants(*(np.stack(col) for col in zip(*(vars(h).values() for h in hats))))


def x_step(hat):
    """The x-step's projection of the hat constants' block, split into (v, S, ell)."""
    m = hat.v_hat.shape[-1]
    x = solve_x0_matrix(hat.block())
    return x[..., :m, :m], x[..., :m, m:], x[..., m:, m:]


class TestMatrixStep:
    def test_psd_hat_passthrough(self):
        rng = np.random.default_rng(4)
        b = rand_cmat(rng, 4)
        w = b @ b.conj().T
        m = 2
        hat_v, hat_S, hat_l = w[:m, :m], w[:m, m:], w[m:, m:]
        hat = HatConstants(hat_v, hat_S, hat_l)
        v, S, ell = x_step(hat)
        assert np.allclose(v, hat_v, atol=1e-10)
        assert np.allclose(S, hat_S, atol=1e-10)
        assert np.allclose(ell, hat_l, atol=1e-10)

    def test_diagonal_truncation(self):
        hat = HatConstants(
            np.array([[1.0 + 0j]]),
            np.array([[0.0 + 0j]]),
            np.array([[-1.0 + 0j]]),
        )
        v, S, ell = x_step(hat)
        assert v[0, 0] == pytest.approx(1.0)
        assert abs(S[0, 0]) <= 1e-14
        assert abs(ell[0, 0]) <= 1e-14

    def test_beats_random_psd_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            hat = HatConstants(
                rand_herm(rng, m), rand_cmat(rng, m), rand_herm(rng, m)
            )
            w = hat.block()
            v, S, ell = x_step(hat)
            x = np.block([[v, S], [S.conj().T, ell]])
            best = np.linalg.norm(x - w)
            for _ in range(500):
                b = rand_cmat(rng, 2 * m)
                y = b @ b.conj().T
                assert best <= np.linalg.norm(y - w) + 1e-9

    def test_output_block_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(1, 4))
            hat = HatConstants(
                rand_herm(rng, m), rand_cmat(rng, m), rand_herm(rng, m)
            )
            v, S, ell = x_step(hat)
            x = np.block([[v, S], [S.conj().T, ell]])
            assert np.linalg.eigvalsh(x).min() >= -1e-9


    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_engine_path_against_eigenvalue_oracle(self, m):
        # assembly, projection and unpacking as the x-step runs them: the
        # block comes back exactly Hermitian and PSD, at the distance
        # sqrt(sum of squared nonpositive eigenvalues) from the target
        rng = np.random.default_rng(70 + m)
        for _ in range(50):
            hat = HatConstants(
                rand_herm(rng, m), rand_cmat(rng, m), rand_herm(rng, m)
            )
            w = hat.block()
            v, S, ell = x_step(hat)
            x = np.block([[v, S], [S.conj().T, ell]])
            assert np.array_equal(x, x.conj().T)
            assert np.linalg.eigvalsh(x).min() >= -1e-10
            lams = np.linalg.eigvalsh(w)
            clipped = float(np.sum(lams[lams <= 0] ** 2))
            assert np.linalg.norm(x - w) ** 2 == pytest.approx(clipped, abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stack_matches_each_block_alone(self, m):
        rng = np.random.default_rng(80 + m)
        hats = [
            HatConstants(
                rand_herm(rng, m), rand_cmat(rng, m), rand_herm(rng, m)
            )
            for _ in range(6)
        ]
        v, S, ell = x_step(stack(*hats))
        for r, hat in enumerate(hats):
            for got, want in zip((v[r], S[r], ell[r]), x_step(hat)):
                assert np.array_equal(got, want)


def grid1d(lo, hi, step):
    pts = np.arange(lo, hi, step)
    return np.append(pts, hi)


def box_grid_best(a1, b1, a2, b2, lo1, hi1, lo2, hi2, step=1e-3):
    ps = grid1d(lo1, hi1, step)
    qs = grid1d(lo2, hi2, step)
    fp = 0.5 * a1 * ps**2 + b1 * ps
    fq = 0.5 * a2 * qs**2 + b2 * qs
    return fp.min() + fq.min()


def disk_grid_best(a1, b1, a2, b2, c):
    """Two-stage grid scan over the half disk; pure enumeration."""

    def scan(p_lo, p_hi, q_lo, q_hi, step):
        ps = np.arange(max(p_lo, 0.0), min(p_hi, c) + step / 2, step)
        qs = np.arange(max(q_lo, -c), min(q_hi, c) + step / 2, step)
        if len(ps) == 0 or len(qs) == 0:
            return None
        pp, qq = np.meshgrid(ps, qs, indexing="ij")
        mask = pp**2 + qq**2 <= c * c
        if not mask.any():
            return None
        obj = 0.5 * a1 * pp**2 + b1 * pp + 0.5 * a2 * qq**2 + b2 * qq
        obj = np.where(mask, obj, np.inf)
        k = np.unravel_index(np.argmin(obj), obj.shape)
        return obj[k], pp[k], qq[k]

    coarse = c / 60.0
    best, p0, q0 = scan(0.0, c, -c, c, coarse)
    fine = scan(p0 - 3 * coarse, p0 + 3 * coarse, q0 - 3 * coarse, q0 + 3 * coarse, 1e-3)
    if fine is not None and fine[0] < best:
        best = fine[0]
    return best


def box(a, b, lo, hi):
    """project_injection_box on one phase's (p, q) pair, as a tuple."""
    return tuple(project_injection_box(*(np.array(pair, dtype=float) for pair in (a, b, lo, hi))))


class TestBoxProjection:
    def test_interior(self):
        assert box((1.0, 1.0), (-0.5, 0.0), (0.0, -1.0), (1.0, 1.0)) == (0.5, 0.0)

    def test_clamped(self):
        p, _ = box((1.0, 1.0), (-2.0, 0.0), (0.0, -1.0), (1.0, 1.0))
        assert p == 1.0

    def test_curvature_precondition(self):
        # the kernel takes a > 0 as given: the engine checks the curvature
        # pairs (alpha + rho, rho) once, when it builds them at set-up
        model = feeder([0, 1], "ab")
        s_index = np.arange(2 * len(model.buses))
        for rho in (0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match="nonpositive curvature"):
                _Injections(list(model.buses), s_index, rho)
        # alpha + rho > 0 but q's curvature rho < 0: still rejected
        convex = [replace(b, cost=(ObjectiveCoeffs(2.0, 1.0),) * 2) for b in model.buses]
        with pytest.raises(ValueError, match="nonpositive curvature"):
            _Injections(convex, s_index, -1.0)
        assert (_Injections(convex, s_index, 1e-300).box_a > 0).all()

    def test_signed_zero_q_targets_keep_their_bits(self):
        # a box target whose q is exactly +0.0 or -0.0 ends where the
        # separate p and q clamps put it, sign of zero included: the linear
        # cost's -0.0 makes -(-0.0 - rho t_q) / rho equal -(-rho t_q) / rho
        rho = 0.7
        state = State(feeder([0, 1, 1], "abc"), SolverConfig(rho=rho))
        at = state.injections.box_at
        p = np.random.default_rng(29).standard_normal(len(at))
        for zero in (0.0, -0.0):
            state.x.real[at], state.x.imag[at] = p, zero
            t = state.x[at]
            b1, b2 = 1.0 - rho * t.real, -rho * t.imag
            p_old = np.minimum(np.maximum(-b1 / (0.0 + rho), -INF), INF)
            q_old = np.minimum(np.maximum(-b2 / rho, -INF), INF)
            _project_injections(state)
            t = state.x[at]
            assert t.real.tobytes() == p_old.tobytes()
            assert t.imag.tobytes() == q_old.tobytes()
            assert np.array_equal(np.signbit(t.imag), np.full(len(at), math.copysign(1, zero) < 0))

    def test_against_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a1, a2 = rng.uniform(0.2, 3.0, 2)
            b1, b2 = rng.uniform(-2.0, 2.0, 2)
            lo1, lo2 = rng.uniform(-1.0, 0.0, 2)
            hi1 = lo1 + rng.uniform(0.05, 1.5)
            hi2 = lo2 + rng.uniform(0.05, 1.5)
            p, q = box((a1, a2), (b1, b2), (lo1, lo2), (hi1, hi2))
            assert lo1 <= p <= hi1 and lo2 <= q <= hi2
            obj = 0.5 * a1 * p * p + b1 * p + 0.5 * a2 * q * q + b2 * q
            assert obj <= box_grid_best(a1, b1, a2, b2, lo1, hi1, lo2, hi2) + 1e-5

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(27)
        a = np.column_stack([rng.uniform(0.2, 3.0, 30), np.full(30, 1.3)])
        b = rng.uniform(-2.0, 2.0, (30, 2))
        lo = rng.uniform(-1.0, 0.0, (30, 2))
        hi = lo + rng.uniform(0.05, 1.5, (30, 2))
        # some phases have free boxes, as the root does
        lo[::7], hi[::7] = -INF, INF
        out = project_injection_box(a, b, lo, hi)
        assert out.shape == (30, 2)
        assert out[::7].tobytes() == (-b[::7] / a[::7]).tobytes()
        for k in range(30):
            assert tuple(out[k]) == box(a[k], b[k], lo[k], hi[k])


class TestDiskProjection:
    def test_case1_example(self):
        # nonnegative real-power gradient pins p at 0; q clamps to the radius
        p, q = project_injection_disk(1.0, 1.0, 1.0, -3.0, 2.0)
        assert (p, q) == (0.0, 2.0)

    def test_case2_interior(self):
        p, q = project_injection_disk(1.0, -0.3, 1.0, 0.4, 1.0)
        assert (p, q) == pytest.approx((0.3, -0.4))

    def test_case3_axis(self):
        lam = solve_disk_multiplier(1.0, -2.0, 1.0, 0.0, 1.0)
        assert lam == pytest.approx(0.5, abs=1e-10)
        p, q = project_injection_disk(1.0, -2.0, 1.0, 0.0, 1.0)
        assert (p, q) == pytest.approx((1.0, 0.0), abs=1e-10)

    def test_case3_symmetric(self):
        lam = solve_disk_multiplier(1.0, -1.0, 1.0, -1.0, 1.0)
        assert lam == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-10)

    def test_multiplier_residual(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            a1, a2 = rng.uniform(0.2, 3.0, 2)
            b1 = -rng.uniform(0.1, 3.0)
            b2 = rng.uniform(-3.0, 3.0)
            c = rng.uniform(0.2, 1.2)
            if disk_case(a1, b1, a2, b2, c) != 3:
                continue
            lam = solve_disk_multiplier(a1, b1, a2, b2, c)
            g = (b1 / (a1 + 2 * lam)) ** 2 + (b2 / (a2 + 2 * lam)) ** 2 - c * c
            assert lam > 0 and abs(g) <= 1e-14 * c * c
            checked += 1

    def test_multiplier_requires_case3(self):
        with pytest.raises(ValueError):
            solve_disk_multiplier(1.0, -0.1, 1.0, 0.0, 1.0)

    def test_cases_partition(self):
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(1000):
            a1, a2 = rng.uniform(0.2, 3.0, 2)
            b1, b2 = rng.uniform(-2.0, 2.0, 2)
            c = rng.uniform(0.2, 1.5)
            case = disk_case(a1, b1, a2, b2, c)
            seen.add(case)
            # the case conditions are mutually exclusive and exhaustive
            inside = (b1 / a1) ** 2 + (b2 / a2) ** 2 <= c * c
            matches = [b1 >= 0, b1 < 0 and inside, b1 < 0 and not inside]
            assert sum(matches) == 1 and matches[case - 1]
        assert seen == {1, 2, 3}

    def test_against_grid(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            a1, a2 = rng.uniform(0.2, 3.0, 2)
            b1, b2 = rng.uniform(-2.0, 2.0, 2)
            c = rng.uniform(0.3, 1.2)
            p, q = project_injection_disk(a1, b1, a2, b2, c)
            # the boundary case solves p^2 + q^2 = c^2 to rounding, relative
            # to c^2, so allow that much slack
            assert p >= 0 and p * p + q * q <= c * c * (1 + 1e-14)
            obj = 0.5 * a1 * p * p + b1 * p + 0.5 * a2 * q * q + b2 * q
            assert obj <= disk_grid_best(a1, b1, a2, b2, c) + 1e-5

    def test_far_target_lands_on_the_circle(self):
        # with b2 = 0 the start, where the first term alone is c^2, is the
        # root itself, so a far target takes no step
        p, q = project_injection_disk(1.0, -1e30, 1.0, 0.0, 1.0)
        assert p > 0 and abs(math.hypot(p, q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("exponent", [35, 40, 100, 150])
    def test_farther_target_lands_on_the_circle(self, exponent):
        # and so are targets whose squares near the float range
        p, q = project_injection_disk(1.0, -(10.0**exponent), 1.0, 0.0, 1.0)
        assert p > 0 and abs(math.hypot(p, q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("exponent", [40, 100])
    def test_far_target_off_the_axis_lands_on_the_circle(self, exponent):
        # a1 != a2 and b2 != 0: the start, where the first term alone is
        # c^2, lies left of the root, and Newton climbs to it from there
        p, q = project_injection_disk(3.0, -(10.0**exponent), 1.0, 10.0 ** (exponent - 1), 1.0)
        assert p > 0 and q < 0 and abs(math.hypot(p, q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("exponent", [200])
    def test_farther_target_raises_value_error(self, exponent):
        # at 1e200 squaring the target overflows; that may neither return a
        # point off the disk nor raise anything the engine does not turn
        # into a SolverError
        with pytest.raises(ValueError):
            project_injection_disk(1.0, -(10.0**exponent), 1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "a1, b1, b2", [(3.0, -1e150, 1e149), (1e60, -1e160, 0.0)], ids=["off-axis", "a1-1e60"]
    )
    def test_large_denominator_target_lands_on_the_circle(self, a1, b1, b2):
        # a1 + 2 lam cubed overflows, but Newton's derivative squares the
        # same quotients as g and divides once more, so it stays finite
        assert disk_case(a1, b1, 1.0, b2, 1.0) == 3
        p, q = project_injection_disk(a1, b1, 1.0, b2, 1.0)
        assert p > 0 and abs(math.hypot(p, q) - 1.0) <= 1e-12

    @pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-5, 1e-7, 1e-50, 1e-150])
    @pytest.mark.parametrize("a2, b2", [(1.0, 0.0), (3.0, 0.5)], ids=["axis", "off-axis"])
    def test_tiny_radius_lands_on_the_circle(self, a2, b2, c):
        # g scales with c^2, so the stop must be relative to it: a bound on
        # |g| alone left 1e-7 at 6.9 radii; and g' scales with c^3, which
        # underflows off the axis at 1e-150 unless Newton runs on g / c^2
        p, q = project_injection_disk(1.0, -1.0, a2, b2, c)
        assert p > 0 and abs(math.hypot(p, q) / c - 1.0) <= 1e-15

    def test_radius_below_the_float_range_raises_value_error(self):
        # |b1| / c overflows, so no start exists; returning lam = inf would
        # put the point at the origin
        with pytest.raises(ValueError):
            project_injection_disk(1.0, -1.0, 1.0, 0.0, 1e-320)

    @pytest.mark.parametrize("name", ["four-bus-abc", "mixed-7-unsorted"])
    def test_engine_multipliers_land_on_the_circle(self, name, monkeypatch):
        # every multiplier the engine's half-disk projection asks for in 50
        # iterations, at the feeder's DER radius of 0.03
        original, seen = subproblems.solve_disk_multiplier, []

        def checked(a1, b1, a2, b2, c):
            lam = original(a1, b1, a2, b2, c)
            p, q = -b1 / (a1 + 2 * lam), -b2 / (a2 + 2 * lam)
            seen.append((abs(p * p + q * q - c * c) / (c * c), abs(math.hypot(p, q) / c - 1)))
            return lam

        monkeypatch.setattr(subproblems, "solve_disk_multiplier", checked)
        run(equivalence_feeder(name), SolverConfig(max_iters=50))
        assert seen
        for g, off in seen:
            assert g <= 1e-14 and off <= 1e-15


def clamp(lam, y, lo, hi, rho):
    """The voltage copy's x-step on one matrix or a stack, raveled, as the
    engine runs it: square completion over a table with one row of
    weight 1 per entry (observation y, multiplier lam, so scaled multiplier
    lam / rho), then solve_x1_voltage on the target; reshaped back."""
    rows = np.arange(y.size)
    one = np.ones(y.size)
    out = np.empty(y.size, dtype=complex)
    complete_square_x0(y.ravel(), lam.ravel() / rho, one, interleave(rows), one, out)
    diag = np.diagonal(rows.reshape(y.shape), axis1=-2, axis2=-1).ravel()
    solve_x1_voltage(out, diag, np.ravel(lo), np.ravel(hi))
    return out.reshape(y.shape)


class TestVoltageClamp:
    def test_no_pull_inside_bounds(self):
        y = np.array([[1.0 + 0j, 0.1 + 0.2j], [0.1 - 0.2j, 0.98]])
        out = clamp(np.zeros((2, 2), dtype=complex), y, [0.9, 0.9], [1.1, 1.1], 1.0)
        assert np.allclose(out, y)

    def test_upper_clamp(self):
        y = np.array([[1.2 + 0j]])
        out = clamp(np.zeros((1, 1), dtype=complex), y, [0.9025], [1.1025], 1.0)
        assert out[0, 0] == pytest.approx(1.1025)

    def test_degenerate_interval_pins(self):
        rng = np.random.default_rng(11)
        y = rand_herm(rng, 3)
        lam = rand_herm(rng, 3)
        out = clamp(lam, y, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 2.0)
        assert np.allclose(out.diagonal(), 1.0)
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(out[off], (y - lam / 2.0)[off])

    def test_prox_optimality(self):
        # result minimizes <lam, x> + rho/2 ||x - y||^2 over the bounds
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = int(rng.integers(1, 4))
            y = rand_herm(rng, m)
            lam = rand_herm(rng, m)
            rho = float(rng.uniform(0.5, 2.0))
            lo = np.full(m, 0.8)
            hi = np.full(m, 1.2)
            x = clamp(lam, y, lo, hi, rho)

            def h(cand):
                return inner(lam, cand) + 0.5 * rho * np.linalg.norm(cand - y) ** 2

            base = h(x)
            for _ in range(50):
                cand = x + rand_herm(rng, m, scale=0.2)
                d = np.clip(cand.diagonal().real, lo, hi)
                np.fill_diagonal(cand, d)
                assert base <= h(cand) + 1e-9

    def test_stack_matches_each_matrix_alone(self):
        rng = np.random.default_rng(28)
        lam = np.stack([rand_herm(rng, 3) for _ in range(4)])
        y = np.stack([rand_herm(rng, 3) for _ in range(4)])
        lo = rng.uniform(0.8, 1.0, (4, 3))
        hi = lo + rng.uniform(0.0, 0.3, (4, 3))
        out = clamp(lam, y, lo, hi, 1.5)
        for r in range(4):
            assert np.array_equal(out[r], clamp(lam[r], y[r], lo[r], hi[r], 1.5))


# ---------------------------------------------------------------------------
# y-subproblem
# ---------------------------------------------------------------------------


def make_context(rng, m, nc, root=False, parent_m=None):
    phases = PhaseSet("abc"[:m])
    if root:
        z = None
        parent_phases = None
    else:
        parent_m = parent_m or min(3, m + int(rng.integers(0, 2)))
        parent_phases = PhaseSet("abc"[:parent_m])
        z = rand_cmat(rng, m, scale=0.05)
    children = []
    for k in range(nc):
        mc = int(rng.integers(1, m + 1))
        children.append((k + 10, PhaseSet("abc"[:mc]), rand_cmat(rng, mc, scale=0.05)))
    return YContext(
        bus_id=1,
        parent=None if root else 0,
        phases=phases,
        z=z,
        parent_phases=parent_phases,
        children=tuple(children),
    )


def random_system(rng, ctx, rho):
    m = len(ctx.phases)
    x0 = XBlock(
        v=rand_herm(rng, m),
        s=rand_cvec(rng, m),
        S=None if ctx.is_root else rand_cmat(rng, m),
        ell=None if ctx.is_root else rand_herm(rng, m),
    )
    mu_self = rand_mults(rng, m, root=ctx.is_root)
    lam1 = rand_herm(rng, m)
    if ctx.is_root:
        mu_parent = x_parent = None
    else:
        mp = len(ctx.parent_phases)
        mu_parent = rand_herm(rng, mp)
        x_parent = rand_herm(rng, mp)
    child_mults = {}
    child_x = {}
    for cid, cph, _ in ctx.children:
        mc = len(cph)
        child_mults[cid] = (rand_cmat(rng, mc), rand_herm(rng, mc))
        child_x[cid] = (rand_cmat(rng, mc), rand_herm(rng, mc))
    solver = YNodeSolver([ctx])
    c = coefficients(
        solver, rho, x0, rand_herm(rng, m), mu_self, lam1, mu_parent, x_parent, child_mults, child_x
    )
    return solver, c


def coefficients(solver, rho, x0, x1_v, mu, lam1, mu_parent, x_parent, child_mults, child_x):
    """c of a one-bus solver at penalty rho: its multiplier and primal
    blocks laid out as y, each primal block times its weight and v_self
    paired with mu_v + lam1 and 2 x_v + x1_v, as the engine pairs them;
    the solver takes the scaled multipliers, mu / rho."""
    mus = [mu.v + lam1, mu.s]
    xs = [x0.v, x0.s]
    ctx = solver.ctxs[0]
    if not ctx.is_root:
        mus += [mu.S, mu.ell, mu_parent]
        xs += [x0.S, x0.ell, x_parent]
    for cid, _, _ in ctx.children:
        mus += child_mults[cid]
        xs += child_x[cid]
    xs = [w * x for (*_, w), x in zip(y_blocks(ctx), xs, strict=True)]
    xs[0] = xs[0] + x1_v
    solver.assemble_c(join(mus) / rho + join(xs))
    return solver.c.copy()


def join(blocks):
    """The blocks raveled one after another, as a y segment."""
    return np.concatenate([np.ravel(b) for b in blocks])


def solve_flat(solver, c):
    """The one-bus solver's minimizer for the linear terms ``c``: its
    complex y segment."""
    solver.c[...] = c
    solver.solve()
    return solver.y.copy()


def solve_local(solver, c):
    """The one-bus solver's minimizer, split into named blocks."""
    ctx = solver.ctxs[0]
    return y_roles(named_blocks(solve_flat(solver, c), ctx), ctx)


def kkt_reference(solver, c, rho) -> np.ndarray:
    """The minimizer of the unscaled y-subproblem at penalty rho, whose
    M and c are rho times the solver's."""
    a = solver.a_mat[0]
    nrows, ncols = a.shape
    kkt = np.zeros((ncols + nrows, ncols + nrows))
    kkt[:ncols, :ncols] = np.diag(rho * solver.m_diag[0])
    kkt[:ncols, ncols:] = a.T
    kkt[ncols:, :ncols] = a
    rhs = np.concatenate([-rho * c, np.zeros(nrows)])
    return np.linalg.solve(kkt, rhs)[:ncols]


class TestYSystem:
    def test_leaf_single_phase_row_count(self):
        rng = np.random.default_rng(13)
        ctx = make_context(rng, 1, 0, parent_m=1)
        solver = YNodeSolver([ctx])
        # two voltage-drop rows plus two power-balance rows (2m^2 + 2m)
        assert solver.a_mat[0].shape[0] == 4
        # re and im of each entry: v, s, S, ell and parent v, one each
        assert solver.a_mat[0].shape[1] == 10

    def test_root_has_no_voltage_drop_rows(self):
        rng = np.random.default_rng(14)
        ctx = make_context(rng, 3, 2, root=True)
        solver = YNodeSolver([ctx])
        assert solver.a_mat[0].shape[0] == 6

    def test_three_phase_row_count(self):
        rng = np.random.default_rng(15)
        ctx = make_context(rng, 3, 1, parent_m=3)
        solver = YNodeSolver([ctx])
        assert solver.a_mat[0].shape[0] == 18 + 6

    def test_zero_inputs_give_zero_coefficients(self):
        rng = np.random.default_rng(21)
        ctx = make_context(rng, 2, 1, parent_m=3)
        m = len(ctx.phases)
        zeros_obs = XBlock(
            v=np.zeros((m, m), complex),
            s=np.zeros(m, complex),
            S=np.zeros((m, m), complex),
            ell=np.zeros((m, m), complex),
        )
        cid, cph, _ = ctx.children[0]
        mc = len(cph)
        mp = len(ctx.parent_phases)
        c = coefficients(
            YNodeSolver([ctx]),
            1.0,
            XBlock(
                v=np.zeros((m, m), complex),
                s=np.zeros(m, complex),
                S=np.zeros((m, m), complex),
                ell=np.zeros((m, m), complex),
            ),
            np.zeros((m, m), complex),
            zeros_obs,
            np.zeros((m, m), complex),
            np.zeros((mp, mp), complex),
            np.zeros((mp, mp), complex),
            {cid: (np.zeros((mc, mc), complex), np.zeros((mc, mc), complex))},
            {cid: (np.zeros((mc, mc), complex), np.zeros((mc, mc), complex))},
        )
        assert np.array_equal(c, np.zeros_like(c))

    def test_assemble_c_on_x_step_slices(self):
        # the x-step hands over S = x[:m, m:] and ell = x[m:, m:], views that
        # are not contiguous; c must equal the penalty's linear term
        # -<mu_b, Y_b> - rho w_b <x_b, Y_b> summed over the blocks b of any Y,
        # over rho (the solver's scaled form)
        def projected(m):
            hat = HatConstants(
                rand_herm(rng, m), rand_cmat(rng, m), rand_herm(rng, m)
            )
            return x_step(hat)

        rng = np.random.default_rng(22)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            nc = int(rng.integers(0, 3))
            ctx = make_context(rng, m, nc)
            rho = float(rng.uniform(0.5, 2.0))
            v, S, ell = projected(m)
            assert m == 1 or not S.flags.c_contiguous
            x0 = XBlock(v=v, s=rand_cvec(rng, m), S=S, ell=ell)
            x1_v = rand_herm(rng, m)
            mu = rand_mults(rng, m)
            lam1 = rand_herm(rng, m)
            mp = len(ctx.parent_phases)
            mu_parent, x_parent = rand_herm(rng, mp), rand_herm(rng, mp)
            child_mults, child_x = {}, {}
            for cid, cph, _ in ctx.children:
                mc = len(cph)
                child_mults[cid] = (rand_cmat(rng, mc), rand_herm(rng, mc))
                child_x[cid] = projected(mc)[1:]
            solver = YNodeSolver([ctx])
            args = (x1_v, mu, lam1, mu_parent, x_parent, child_mults)
            c = coefficients(solver, rho, x0, *args, child_x)
            copies = {j: (a.copy(), b.copy()) for j, (a, b) in child_x.items()}
            contiguous = XBlock(v.copy(), x0.s, S.copy(), ell.copy())
            assert np.array_equal(c, coefficients(solver, rho, contiguous, *args, copies))

            theta = rng.standard_normal(2 * solver.offsets[-1])
            y = named_blocks(theta.view(complex), ctx).values()
            terms = [
                (mu.v + lam1, 2.0 * v + x1_v, 1.0),
                (mu.s, x0.s, 1.0),
                (mu.S, S, 2.0 * nc + 3.0),
                (mu.ell, ell, nc + 1.0),
                (mu_parent, x_parent, 1.0),
            ]
            for cid, _, _ in ctx.children:
                terms.append((child_mults[cid][0], child_x[cid][0], 1.0))
                terms.append((child_mults[cid][1], child_x[cid][1], 1.0))
            expected = sum(
                -inner(mu_b, y_b) - rho * w * inner(x_b, y_b)
                for (mu_b, x_b, w), y_b in zip(terms, y, strict=True)
            )
            assert rho * (c @ theta) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_c_gives_zero(self):
        rng = np.random.default_rng(16)
        ctx = make_context(rng, 2, 1, parent_m=3)
        solver = YNodeSolver([ctx])
        local = solve_local(solver, np.zeros(2 * solver.offsets[-1]))
        assert np.allclose(local.v_self, 0) and np.allclose(local.s_self, 0)
        assert np.allclose(local.v_parent, 0)

    def test_matches_kkt_solve(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            nc = int(rng.integers(0, 3))
            root = bool(rng.integers(0, 2)) and nc > 0
            ctx = make_context(rng, m, nc, root=root)
            rho = float(rng.uniform(0.5, 2.0))
            solver, c = random_system(rng, ctx, rho)
            theta = solve_flat(solver, c).view(float)
            ref = kkt_reference(solver, c, rho)
            assert np.max(np.abs(theta - ref)) <= 1e-8

    def test_constraint_residual(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            nc = int(rng.integers(0, 3))
            ctx = make_context(rng, m, nc)
            solver, c = random_system(rng, ctx, 1.0)
            theta = solve_flat(solver, c).view(float)
            assert np.max(np.abs(solver.a_mat[0] @ theta)) <= 1e-10

    def test_bfm_equations_hold_in_complex_form(self):
        # c that is Hermitian in the Hermitian blocks (random_system's) gives
        # Hermitian blocks: the balance reads each child's ell through its
        # Hermitian part, so the minimizer over all blocks is the one over
        # Hermitian blocks, and it meets the branch-flow equations as written
        rng = np.random.default_rng(19)
        from radialopf.network import phase_lift, phase_project

        for _ in range(20):
            m = int(rng.integers(1, 4))
            nc = int(rng.integers(0, 3))
            ctx = make_context(rng, m, nc)
            solver, c = random_system(rng, ctx, 1.0)
            local = solve_local(solver, c)
            for block in hermitian_blocks(local):
                gap = np.linalg.norm(block - block.conj().T)
                assert gap <= 1e-12 * np.linalg.norm(block)
            z = ctx.z
            drop = (
                phase_project(local.v_parent, ctx.parent_phases, ctx.phases)
                - local.v_self
                + z @ local.S_self.conj().T
                + local.S_self @ z.conj().T
                - z @ local.ell_self @ z.conj().T
            )
            assert np.max(np.abs(drop)) <= 1e-10
            acc = np.zeros(m, dtype=complex)
            for cid, cph, zc in ctx.children:
                S_j, ell_j = local.child_flows[cid]
                acc += phase_lift(S_j - zc @ ell_j, cph, ctx.phases).diagonal()
            balance = local.s_self + acc - local.S_self.diagonal()
            assert np.max(np.abs(balance)) <= 1e-10

    def test_zero_impedance_keeps_full_rank(self):
        rng = np.random.default_rng(20)
        ctx = make_context(rng, 2, 0, parent_m=2)
        degenerate = YContext(
            bus_id=ctx.bus_id,
            parent=ctx.parent,
            phases=ctx.phases,
            z=np.zeros((2, 2), dtype=complex),
            parent_phases=ctx.parent_phases,
            children=(),
        )
        # each equation row still carries its own v or s entry
        solver = YNodeSolver([degenerate])
        assert solver.a_mat[0].shape[0] == 8 + 4

    def test_repeated_constraint_rows_are_rejected(self, monkeypatch):
        # every row given twice shares each of its columns with its copy,
        # so no row has a column of its own
        ctx = make_context(np.random.default_rng(21), 2, 1, parent_m=2)
        original = subproblems._constraint_values
        monkeypatch.setattr(subproblems, "_constraint_values", lambda *a: original(*a) * 2)
        with pytest.raises(ValueError, match="no column of its own"):
            YNodeSolver([ctx])

    def test_group_matches_each_bus_alone(self):
        # the engine's one solver over every bus, with several signatures
        # (every bus its own on the mixed-phase feeder, runs of leaves on
        # the fat-tree) and each bus's blocks in its segment of y, equals a
        # solver per bus
        rng = np.random.default_rng(23)
        for name in ("mixed-7-unsorted", "fat-tree-7-ab"):
            solver = State(equivalence_feeder(name), SolverConfig(rho=1.3)).ysolver
            size = solver.offsets[-1]
            mu = rand_cvec(rng, size)
            x = rand_cvec(rng, size)
            total = mu / 1.3 + x
            solver.assemble_c(total)
            solver.solve()
            c, y = solver.c, solver.y
            assert len({y_signature(ctx) for ctx in solver.ctxs}) > 1
            first = 0
            segments = zip(solver.offsets[:-1], solver.offsets[1:])
            for b, (ctx, (start, end)) in enumerate(zip(solver.ctxs, segments, strict=True)):
                alone = YNodeSolver([ctx])
                n = 2 * (end - start)
                assert np.array_equal(alone.a_mat[0], solver.a_mat[b])
                alone.assemble_c(total[start:end])
                c_b = alone.c
                assert np.array_equal(c_b, c[first : first + n])
                alone.solve()
                y_b = alone.y
                assert np.array_equal(y_b, y[start:end])
                first += n
            assert first == len(c)


def bfm_residuals(model, i, local) -> np.ndarray:
    """Bus i's branch-flow residuals at its y-blocks ``local`` (``y_roles``),
    written as ``verify.check_bfm_feasibility`` writes them: the voltage
    drop's entries row by row (off the root), then the power balance, as
    one float vector."""
    bus, parts = model.bus(i), []
    if i in model.line:
        z = model.line[i].z
        parent = model.bus(model.line[i].parent)
        drop = phase_project(local.v_parent, parent.phases, bus.phases) - (
            local.v_self
            - z @ local.S_self.conj().T
            - local.S_self @ z.conj().T
            + z @ local.ell_self @ z.conj().T
        )
        parts.append(drop.ravel())
    acc = np.zeros(len(bus.phases), dtype=complex)
    for j in model.children[i]:
        S_j, ell_j = local.child_flows[j]
        flow = S_j - model.line[j].z @ ell_j
        acc += phase_lift(flow, model.bus(j).phases, bus.phases).diagonal()
    if i in model.line:
        acc -= local.S_self.diagonal()
    parts.append(local.s_self + acc)
    return np.concatenate(parts).view(float)


def impedance_variant(name, change):
    """An equivalence feeder with each line's impedance scaled by its own
    factor (``distinct``), or with bus 2's line impedance zero (``zero``)."""
    feeder = json.loads(json.dumps(RECORDS[name]["feeder"]))
    for k, line in enumerate(feeder["lines"]):
        if change == "distinct":
            f = 1.0 + 0.37 * k
        elif line["bus"] == 2:
            f = 0.0
        else:
            continue
        line["z"] = [[{"re": f * e["re"], "im": f * e["im"]} for e in row] for row in line["z"]]
    return loads_feeder(json.dumps(feeder))


class TestConstraintRows:
    """``a_mat`` as the linear map it stands for, on the engine's solver."""

    @pytest.mark.parametrize("change", ["as recorded", "distinct", "zero"])
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_rows_are_the_branch_flow_residuals(self, name, change):
        # random Hermitian segments far from any minimizer: a_mat y is the
        # float view of the drop, then the balance, as the verifier writes them
        model = equivalence_feeder(name) if change == "as recorded" else (
            impedance_variant(name, change)
        )
        solver = State(model, SolverConfig()).ysolver
        rng = np.random.default_rng(29)
        segments = zip(solver.offsets[:-1], solver.offsets[1:])
        for a, ctx, (start, end) in zip(solver.a_mat, solver.ctxs, segments, strict=True):
            y = rand_cvec(rng, end - start)
            local = y_roles(named_blocks(y, ctx), ctx)
            for block in hermitian_blocks(local):
                block[...] = 0.5 * (block + block.conj().T)
            want = bfm_residuals(model, ctx.bus_id, local)
            got = a @ y.view(float)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_feeders_cover_phase_subsets_and_impedances(self):
        # abc -> ab -> a below one bus, children of one bus on distinct
        # impedances, and a zero line impedance
        model = equivalence_feeder("mixed-7-unsorted")
        path = [model.bus(i).phases.letters for i in (0, 2, 3)]
        assert path == ["abc", "ab", "a"] and model.line[3].parent == 2
        distinct = impedance_variant("fat-tree-7-abc", "distinct")
        assert not np.array_equal(distinct.line[1].z, distinct.line[2].z)
        assert not impedance_variant("four-bus-abc", "zero").line[2].z.any()


def count_prefactored(monkeypatch):
    """A list that grows by the bus ids of every ``_prefactor`` call."""
    seen = []
    original = YNodeSolver._prefactor

    def counted(self, ctxs, m_diag):
        seen.extend(ctx.bus_id for ctx in ctxs)
        return original(self, ctxs, m_diag)

    monkeypatch.setattr(YNodeSolver, "_prefactor", counted)
    return seen


def assert_matches_each_bus_alone(solver):
    """Every bus's constraint rows and operator equal its own prefactor's."""
    operators = [op for stack, _, _ in solver._stacks for op in stack]
    for b, ctx in enumerate(solver.ctxs):
        alone = YNodeSolver([ctx])
        assert np.array_equal(alone.a_mat[0], solver.a_mat[b])
        assert np.array_equal(alone._stacks[0][0][0], operators[b])


def fat_tree_variant(change):
    """fat-tree-7-ab (buses 1 and 2 with leaves 3, 4 and 5, 6) with one
    neighborhood changed but every signature kept, so only the phase
    letters or the impedance bytes tell the changed buses apart."""
    doc = json.loads((Path(__file__).parent / "data" / "engine_equivalence.json").read_text())
    feeder = doc["fat-tree-7-ab"]["feeder"]
    if change == "line z":
        # bus 5's line and so bus 2's child impedance
        line = next(ln for ln in feeder["lines"] if ln["bus"] == 5)
        line["z"] = [[{"re": 1.5 * e["re"], "im": 1.5 * e["im"]} for e in row] for row in line["z"]]
    else:
        # single-phase leaves: bus 4 on phase b, the others on phase a, so
        # buses 1 (children a, b) and 2 (children a, a) differ by letters
        for bus in feeder["buses"][3:]:
            k = 1 if bus["id"] == 4 else 0
            bus["phases"] = "ab"[k]
            for field in ("vmin", "vmax", "region", "cost"):
                bus[field] = bus[field][k : k + 1]
        for line in feeder["lines"][2:]:
            k = 1 if line["bus"] == 4 else 0
            line["z"] = [[line["z"][k][k]]]
    return loads_feeder(json.dumps(feeder))


class TestNeighborhoods:
    def test_line_prefactors_three_neighborhoods(self, monkeypatch):
        # the root, the five inner buses and the leaf: every line has the
        # template's impedance, so the inner buses share one neighborhood
        prefactored = count_prefactored(monkeypatch)
        solver = State(generate_topology("line", 7), SolverConfig()).ysolver
        ids = sorted(prefactored)
        assert len(ids) == 3 and ids[0] == 0 and 0 < ids[1] < 6 and ids[2] == 6
        assert len(solver.a_mat) == 7
        assert_matches_each_bus_alone(solver)

    def test_fat_tree_prefactors_three_neighborhoods(self, monkeypatch):
        prefactored = count_prefactored(monkeypatch)
        solver = State(equivalence_feeder("fat-tree-7-ab"), SolverConfig()).ysolver
        assert len(prefactored) == 3  # root, inner bus and leaf
        assert_matches_each_bus_alone(solver)

    @pytest.mark.parametrize("change", ["line z", "child phases"])
    def test_changed_neighborhood_is_prefactored_itself(self, monkeypatch, change):
        model = fat_tree_variant(change)
        prefactored = count_prefactored(monkeypatch)
        solver = State(model, SolverConfig()).ysolver
        # buses 1 and 2 and the odd leaf out share a signature with a bus
        # of another neighborhood
        assert len({y_signature(ctx) for ctx in solver.ctxs}) == 3
        assert len(prefactored) == 5
        assert_matches_each_bus_alone(solver)

    def test_run_matches_one_prefactor_per_bus(self, monkeypatch):
        # sharing a neighborhood's operator leaves every iterate's bits as
        # they are with a prefactor per bus
        model = equivalence_feeder("fat-tree-7-ab")
        config = SolverConfig(max_iters=300)
        shared = run(model, config)
        monkeypatch.setattr(subproblems, "_neighborhood", lambda ctx: ctx.bus_id)
        prefactored = count_prefactored(monkeypatch)
        alone = run(model, config)
        assert sorted(prefactored) == list(range(len(model.buses)))
        assert len(shared.history) == 300
        assert shared.history == alone.history

    def test_shared_neighborhood_leaves_its_signature(self):
        # leaves 3, 4 and 6 share a neighborhood and leaf 5, on its scaled
        # line, has its own: the three form a group that applies one
        # operator, and leaf 5 stays in its signature's group, after them
        solver = State(fat_tree_variant("line z"), SolverConfig()).ysolver
        assert [c.bus_id for c in solver.ctxs] == [0, 1, 2, 3, 4, 6, 5]
        assert len(solver._stacks) == 4
        leaves = solver._stacks[2][0]
        assert len(leaves) == 3
        assert all(np.shares_memory(leaves[0], op) for op in leaves[1:])
        assert_matches_each_bus_alone(solver)

    def test_split_run_matches_one_prefactor_per_bus(self, monkeypatch):
        # a prefactor per bus groups by signature alone, so y is laid out
        # in another bus order and its sums run in another order
        model = fat_tree_variant("line z")
        shared = run(model, SolverConfig())
        monkeypatch.setattr(subproblems, "_neighborhood", lambda ctx: ctx.bus_id)
        alone = run(model, SolverConfig())
        assert shared.status == alone.status == "converged"
        assert len(shared.history) == len(alone.history)
        for h0, h1 in zip(shared.history, alone.history):
            assert h0.k == h1.k
            assert max(abs(h0.r - h1.r), abs(h0.s - h1.s), abs(h0.objective - h1.objective)) <= 1e-12
        for i, blk in shared.solution.items():
            for a, b in zip(vars(blk).values(), vars(alone.solution[i]).values()):
                assert (a is None) == (b is None)
                if a is not None:
                    assert np.max(np.abs(a - b)) <= 1e-12

    def test_shared_operators_are_not_copied(self):
        # one n x n float operator per distinct neighborhood, however many
        # buses share it: the root, the inner buses and the leaves
        model = generate_topology("fat-tree", 63, TopologyTemplate(phases="abc"))
        solver = State(model, SolverConfig()).ysolver
        bases = {}
        for operator, _, _ in solver._stacks:
            while isinstance(operator.base, np.ndarray):
                operator = operator.base
            bases[id(operator)] = operator
        sizes = {
            subproblems._neighborhood(ctx): 2 * (end - start)
            for ctx, start, end in zip(solver.ctxs, solver.offsets, solver.offsets[1:])
        }
        assert len(sizes) == 3
        assert sum(b.nbytes for b in bases.values()) == sum(8 * n * n for n in sizes.values())


def ordered_by_first_seen_signature(ctxs):
    """The bus ids of the contexts grouped by signature, signatures in
    first-seen order and contexts in the given order within each."""
    signatures = dict.fromkeys(y_signature(c) for c in ctxs)
    return [c.bus_id for sig in signatures for c in ctxs if y_signature(c) == sig]


class TestYBlocks:
    def test_table_of_mixed_feeder(self):
        # mixed-7-unsorted: root 0 (abc) with children 1 (ab), 2 (ab), 4 (a);
        # bus 2 with children 3 (a), 5 (b); bus 5 with child 6 (b)
        solver = State(equivalence_feeder("mixed-7-unsorted"), SolverConfig()).ysolver
        ctxs = {c.bus_id: c for c in solver.ctxs}
        expected = {
            0: [  # the root: its own v and s, then each child's S and ell
                (0, 0, (3, 3), 2.0),
                (0, 1, (3,), 1.0),
                (1, 2, (2, 2), 1.0),
                (1, 3, (2, 2), 1.0),
                (2, 2, (2, 2), 1.0),
                (2, 3, (2, 2), 1.0),
                (4, 2, (1, 1), 1.0),
                (4, 3, (1, 1), 1.0),
            ],
            2: [  # an inner bus with two children
                (2, 0, (2, 2), 2.0),
                (2, 1, (2,), 1.0),
                (2, 2, (2, 2), 7.0),
                (2, 3, (2, 2), 3.0),
                (0, 0, (3, 3), 1.0),
                (3, 2, (1, 1), 1.0),
                (3, 3, (1, 1), 1.0),
                (5, 2, (1, 1), 1.0),
                (5, 3, (1, 1), 1.0),
            ],
            1: [  # a leaf
                (1, 0, (2, 2), 2.0),
                (1, 1, (2,), 1.0),
                (1, 2, (2, 2), 3.0),
                (1, 3, (2, 2), 1.0),
                (0, 0, (3, 3), 1.0),
            ],
            5: [  # phase b of its parent's ab, with one child
                (5, 0, (1, 1), 2.0),
                (5, 1, (1,), 1.0),
                (5, 2, (1, 1), 5.0),
                (5, 3, (1, 1), 2.0),
                (2, 0, (2, 2), 1.0),
                (6, 2, (1, 1), 1.0),
                (6, 3, (1, 1), 1.0),
            ],
        }
        for i, table in expected.items():
            assert y_blocks(ctxs[i]) == table, i
            assert y_signature(ctxs[i]) == tuple(shape for _, _, shape, _ in table)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_pair_follows_the_neighborhood_order(self, name):
        # the identity rows observe each bus's own v, s[, S, ell], its
        # parent's v, then each child's S and ell, buses grouped by
        # first-seen signature in feeder order
        model = equivalence_feeder(name)
        state = State(model, SolverConfig())

        def observed(i):
            seen = list(state.x_entries[i])
            if i in model.line:
                seen.append(state.x_entries[model.line[i].parent][0])
            for j in model.children[i]:
                seen += state.x_entries[j][2:]
            return np.concatenate(seen, axis=None)

        ctxs = state.ysolver.ctxs
        by_id = {c.bus_id: c for c in ctxs}
        in_feeder_order = [by_id[b.id] for b in model.buses]
        assert [c.bus_id for c in ctxs] == ordered_by_first_seen_signature(in_feeder_order)
        ny = len(state.y)
        assert np.array_equal(state.pair[:ny], np.concatenate([observed(c.bus_id) for c in ctxs]))

    @pytest.mark.parametrize("name", ["line-10-a", "fat-tree-7-ab"])
    def test_solver_groups_shuffled_contexts(self, name):
        # inner buses and leaves share signatures, which the shuffle splits
        given = list(State(equivalence_feeder(name), SolverConfig()).ysolver.ctxs)
        np.random.default_rng(29).shuffle(given)
        assert [c.bus_id for c in given] != ordered_by_first_seen_signature(given)
        solver = YNodeSolver(given)
        assert [c.bus_id for c in solver.ctxs] == ordered_by_first_seen_signature(given)
        assert len(solver._stacks) == len({y_signature(c) for c in given})
        assert_matches_each_bus_alone(solver)
        for b, ctx in enumerate(solver.ctxs):
            start, end = solver.offsets[b], solver.offsets[b + 1]
            alone = YNodeSolver([ctx]).weight[: end - start]
            assert np.array_equal(solver.weight[start:end], alone)
