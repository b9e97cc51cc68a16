import json
import math
import os
import subprocess
import sys
from collections import Counter
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
    nan_cost,
)
from oracle import oracle_opf

from radialopf import engine, hermitian
from radialopf.engine import (
    PHASE_REFERENCE,
    SolverConfig,
    SolverError,
    State,
    compute_objective,
    compute_residuals,
    initialize,
    multiplier_update_round,
    run,
    x_update_round,
    y_update_round,
)
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
    loads_feeder,
    phase_lift,
    phase_project,
)
from radialopf.subproblems import YNodeSolver, complete_square_x0, scatter_add, solve_x0_matrix

INF = float("inf")


def loss(n):
    return tuple(ObjectiveCoeffs(0.0, 1.0) for _ in range(n))


def free_box(n):
    return tuple(Box(-INF, INF, -INF, INF) for _ in range(n))


def single_phase_bus(i, region, v_lo=0.9025, v_hi=1.1025):
    return BusSpec(i, PhaseSet("a"), (v_lo,), (v_hi,), (region,), loss(1))


def chain_model(injections, z=0.01 + 0.02j, beta=1.0):
    """Single-phase chain with fixed injections at buses 1..n."""
    cost = (ObjectiveCoeffs(0.0, beta),)
    buses = [
        BusSpec(0, PhaseSet("a"), (1.0,), (1.0,), (Box(-INF, INF, -INF, INF),), cost)
    ]
    lines = []
    for k, s in enumerate(injections, start=1):
        buses.append(
            BusSpec(
                k,
                PhaseSet("a"),
                (0.9025,),
                (1.1025,),
                (Box(s.real, s.real, s.imag, s.imag),),
                cost,
            )
        )
        lines.append(LineSpec(k, k - 1, np.array([[z]])))
    return FeederModel(tuple(buses), tuple(lines))


TWO_BUS = chain_model([-0.1 - 0.05j])


def mixed_feeder():
    """Seven buses with one, two and three phases and ids out of child-count order."""
    doc = json.loads((Path(__file__).parent / "data" / "engine_equivalence.json").read_text())
    return loads_feeder(json.dumps(doc["mixed-7-unsorted"]["feeder"]))


def views(state):
    """Every bus's named blocks of the run's buffers, by id; views stay live."""
    return {b.id: bus_blocks(state, b.id) for b in state.model.buses}


class TestInitialize:
    def test_leaf_current_from_injection(self):
        agents = views(initialize(TWO_BUS))
        leaf = agents[1]
        s = leaf.x0.s[0]
        # flat start: V = 1, so I = conj(s / V) and S = V conj(I) = s
        assert s == pytest.approx(-0.1 - 0.05j)
        assert leaf.x0.S[0, 0] == pytest.approx(s)
        assert leaf.x0.ell[0, 0] == pytest.approx(abs(s) ** 2)

    def test_chain_accumulates_child_currents(self):
        model = chain_model([-0.1 + 0j, -0.2 + 0j])
        agents = views(initialize(model))
        # bus 1 carries its own injection current plus bus 2's
        assert agents[1].x0.S[0, 0] == pytest.approx(-0.3 + 0j)
        assert agents[2].x0.S[0, 0] == pytest.approx(-0.2 + 0j)

    def test_zero_injections_flat(self):
        model = chain_model([0j, 0j])
        agents = views(initialize(model))
        for i in (1, 2):
            assert np.allclose(agents[i].x0.ell, 0)
            assert np.allclose(agents[i].x0.S, 0)
            assert np.allclose(agents[i].x0.v, 1.0)

    def test_three_phase_flat_start(self):
        model = generate_topology("line", 3, TopologyTemplate(phases="abc"))
        agents = views(initialize(model))
        v = agents[0].x0.v
        ref = np.array([PHASE_REFERENCE[ch] for ch in "abc"])
        assert np.allclose(v, np.outer(ref, ref.conj()))
        assert np.allclose(np.abs(v.diagonal()), 1.0)

    @pytest.mark.parametrize("model", [TWO_BUS, mixed_feeder()])
    def test_blocks_are_outer_products(self, model):
        # each flat-start block is w w^H bit for bit, with w = (v, i): the
        # flat voltage and the line current, the injection currents summed
        # bottom-up over the children; the root's block is v v^H
        state = initialize(model)
        volt, current = {}, {}

        def accumulate(i):
            bus = model.bus(i)
            volt[i] = np.array([PHASE_REFERENCE[ch] for ch in bus.phases])
            s = np.array([r.initial_point() for r in bus.regions], dtype=complex)
            current[i] = np.conj(s / volt[i])
            for j in model.children[i]:
                accumulate(j)
                current[i][model.bus(j).phases.indices_in(bus.phases)] += current[j]

        accumulate(0)
        for i, w in volt.items():
            if i != 0:
                w = np.concatenate([w, current[i]])
            start = state.x_entries[i][0].flat[0]
            block = state.x[start : start + w.size**2].reshape(w.size, w.size)
            assert np.array_equal(block, w[:, None] * w.conj()[None, :])

    def test_multipliers_start_at_zero(self):
        agents = views(initialize(TWO_BUS))
        assert np.all(agents[1].u1 == 0)
        assert np.all(agents[1].u.S_self == 0)
        assert np.all(agents[1].u.v_parent == 0)

    def test_observations_match_primal(self):
        agents = views(initialize(TWO_BUS))
        root, leaf = agents[0], agents[1]
        assert np.array_equal(leaf.y.v_parent, root.x0.v)
        assert np.array_equal(root.y.child_flows[1][0], leaf.x0.S)


class TestRounds:
    def test_fixed_point_is_stationary(self):
        # zero impedance, zero load, zero cost gradient: the flat start with
        # zero multipliers is a fixed point, so one iteration moves nothing
        model = chain_model([0j], z=0j, beta=0.0)
        config = SolverConfig()
        state = initialize(model, config)
        agents = views(state)
        before = {i: copy_block(agents[i].x0) for i in agents}
        x_update_round(state)
        y_update_round(state)
        multiplier_update_round(state)
        for i in agents:
            assert np.allclose(agents[i].x0.v, before[i].v, atol=1e-9)
            assert np.allclose(agents[i].x0.s, before[i].s, atol=1e-9)
            assert np.all(agents[i].u1 == 0) or np.allclose(agents[i].u1, 0, atol=1e-12)
        r, s = compute_residuals(state)
        assert r <= 1e-10 and s <= 1e-10

    def test_run_converges_immediately_at_fixed_point(self):
        model = chain_model([0j], z=0j, beta=0.0)
        result = run(model)
        assert result.converged and len(result.history) == 1

    def test_multiplier_scalar_step(self):
        state = initialize(TWO_BUS, SolverConfig(rho=0.5))
        agent = bus_blocks(state, 0)
        agent.x0.s[...] = agent.y.s_self + 2.0
        multiplier_update_round(state)
        # mu = rho * u moves by rho times the gap
        assert state.rho * agent.u.s_self[0] == pytest.approx(1.0)

    def test_multiplier_stationary_at_consensus(self):
        state = initialize(TWO_BUS)
        multiplier_update_round(state)
        for agent in views(state).values():
            assert np.allclose(agent.u.v_self, 0) and np.allclose(agent.u.s_self, 0)

    def test_multiplier_shapes_preserved(self):
        model = generate_topology("fat-tree", 5, TopologyTemplate(phases="ab"))
        config = SolverConfig()
        state = initialize(model, config)
        x_update_round(state)
        y_update_round(state)
        multiplier_update_round(state)
        for agent in views(state).values():
            n = len(agent.bus.phases)
            assert agent.u1.shape == (n, n)
            assert agent.u.s_self.shape == (n,)
            if not agent.is_root:
                assert agent.u.v_parent.shape == agent.y.v_parent.shape

    def test_residual_is_euclidean(self):
        state = initialize(chain_model([0j], z=0j))
        root = bus_blocks(state, 0)
        root.x0.s[...] = root.y.s_self + 3.0
        root.x1_v[...] = root.y.v_self + 4.0
        multiplier_update_round(state)
        r, s = compute_residuals(state)
        assert r == pytest.approx(5.0)
        assert s == 0.0

    def test_one_iteration_messages_every_tree_edge(self):
        # the cross-bus reads of the x- and y-steps are the messages: they
        # run both ways along every line and nowhere else
        config = SolverConfig()
        fat_tree = generate_topology("fat-tree", 7, TopologyTemplate(phases="abc"))
        for model in (fat_tree, mixed_feeder()):
            state = initialize(model, config)
            edges = {(ln.bus, ln.parent) for ln in model.lines}
            edges |= {(b, a) for a, b in edges}
            assert state.messages == edges

    def test_x_outputs_stay_psd(self):
        model = generate_topology("fat-tree", 7, TopologyTemplate(phases="abc"))
        config = SolverConfig()
        state = initialize(model, config)
        for _ in range(5):
            x_update_round(state)
            y_update_round(state)
            multiplier_update_round(state)
        for agent in views(state).values():
            if agent.is_root:
                continue
            blk = np.block(
                [[agent.x0.v, agent.x0.S], [agent.x0.S.conj().T, agent.x0.ell]]
            )
            assert np.linalg.eigvalsh(blk).min() >= -1e-9

    def test_x_update_decreases_its_objective(self):
        # prox optimality: the x step minimizes its own objective, so it can
        # never be worse than the previous iterate under the same shares
        def h_value(state, agent, rho, x):
            bus = agent.bus
            val = sum(
                bus.cost[t].value(float(x.s[t].real)) for t in range(len(bus.phases))
            )
            return val + direct_penalty(x.v, x.S, x.ell, x.s, state, bus.id, rho)

        model = generate_topology("fat-tree", 7, TopologyTemplate(phases="ab"))
        config = SolverConfig()
        state = initialize(model, config)
        agents = views(state)
        for _ in range(3):
            x_update_round(state)
            y_update_round(state)
            multiplier_update_round(state)
        before = {i: copy_block(agents[i].x0) for i in agents}
        x_update_round(state)
        for i, agent in agents.items():
            h_new = h_value(state, agent, config.rho, agent.x0)
            h_old = h_value(state, agent, config.rho, before[i])
            assert h_new <= h_old + 1e-10

    def test_converged_solution_is_bfm_feasible(self):
        from radialopf.verify import check_bfm_feasibility

        model = generate_topology("fat-tree", 7)
        result = run(model)
        assert result.converged
        report = check_bfm_feasibility(result.solution, model, tol=1e-3)
        assert report.ok

    def test_y_update_satisfies_bfm_exactly(self):
        model = generate_topology("fat-tree", 7, TopologyTemplate(phases="abc"))
        config = SolverConfig()
        state = initialize(model, config)
        by_id = {b.id: b for b in model.buses}
        lines = {ln.bus: ln for ln in model.lines}
        for _ in range(3):
            x_update_round(state)
            y_update_round(state)
            multiplier_update_round(state)
        for i, agent in views(state).items():
            bus, y = agent.bus, agent.y
            if not agent.is_root:
                z = lines[i].z
                parent_phases = by_id[agent.parent].phases
                drop = (
                    phase_project(y.v_parent, parent_phases, bus.phases)
                    - y.v_self
                    + z @ y.S_self.conj().T
                    + y.S_self @ z.conj().T
                    - z @ y.ell_self @ z.conj().T
                )
                assert np.max(np.abs(drop)) <= 1e-10
            acc = np.zeros(len(bus.phases), dtype=complex)
            for j in agent.children:
                S_j, ell_j = y.child_flows[j]
                zc = lines[j].z
                acc += phase_lift(
                    S_j - zc @ ell_j, by_id[j].phases, bus.phases
                ).diagonal()
            if not agent.is_root:
                acc -= y.S_self.diagonal()
            assert np.max(np.abs(y.s_self + acc)) <= 1e-10

    def test_non_finite_multiphase_target_reaches_the_residual(self):
        # a NaN off the diagonal of a 6x6 target can stop LAPACK from
        # converging; the projection then gives NaN, and r is not finite
        model = generate_topology("line", 3, TopologyTemplate(phases="abc"))
        config = SolverConfig()
        state = initialize(model, config)
        views(state)[1].y.v_self[0, 2] = complex(0.0, math.nan)
        x_update_round(state)
        multiplier_update_round(state)
        r, _ = compute_residuals(state)
        assert not math.isfinite(r)
        # a NaN target on a half-disk phase gives a NaN injection, as on a
        # box phase, rather than a failed multiplier solve
        bus = replace(model.buses[1], regions=(Disk(0.5),) + model.buses[1].regions[1:])
        model = FeederModel((model.buses[0], bus, model.buses[2]), model.lines)
        state = initialize(model, config)
        views(state)[1].y.s_self[0] = math.nan
        x_update_round(state)
        multiplier_update_round(state)
        r, _ = compute_residuals(state)
        assert not math.isfinite(r)

    def test_kernel_errors_surface_with_their_iteration(self, monkeypatch):
        # the x- and the y-step each call their kernel once per iteration
        # on a single-phase chain, so its 7th call is in iteration 7
        for owner, name in ((engine, "solve_x0_matrix"), (YNodeSolver, "solve")):
            kernel, calls = getattr(owner, name), []

            def fail_on_seventh(*args, kernel=kernel, calls=calls):
                calls.append(None)
                if len(calls) == 7:
                    raise ValueError("kernel failed")
                return kernel(*args)

            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fail_on_seventh)
                with pytest.raises(SolverError, match="^iteration 7: kernel failed$"):
                    run(chain_model([-0.1 + 0j]))


class TestRun:
    def test_two_bus_converges_to_oracle(self):
        model = chain_model([-0.25 + 0.05j])
        # widen the load band so the solver actually optimizes
        buses = list(model.buses)
        buses[1] = single_phase_bus(1, Box(-0.3, -0.2, -0.1, 0.1))
        model = FeederModel(tuple(buses), model.lines)
        result = run(model, SolverConfig(tol_scale=1e-6))
        assert result.converged
        best, _ = oracle_opf(model)
        admm_obj = result.history[-1].objective
        assert admm_obj >= best - 1e-6
        assert admm_obj <= best + 1e-3 * abs(best) + 1e-6

    def test_five_bus_line_reaches_tolerance(self):
        model = generate_topology("line", 5)
        result = run(model)
        assert result.converged
        tol = 1e-4 * np.sqrt(5)
        assert result.history[-1].r <= tol and result.history[-1].s <= tol

    def test_max_iters_status(self):
        model = chain_model([-0.1 + 0j])
        result = run(model, SolverConfig(max_iters=1))
        assert result.status == "max-iters"
        assert len(result.history) == 1

    def test_non_finite_residual_stops_as_diverged(self):
        # the loader and the types reject a NaN cost, so the models are built
        # past their checks: a NaN cost on every box phase, then on one
        # half-disk phase alone
        chain = chain_model([-0.1 + 0j])
        model = FeederModel(tuple(replace(b, cost=(nan_cost(),)) for b in chain.buses), chain.lines)
        der = replace(TWO_BUS.buses[1], regions=(Disk(0.5),), cost=(nan_cost(),))
        for model in (model, FeederModel((TWO_BUS.buses[0], der), TWO_BUS.lines)):
            result = run(model, SolverConfig(max_iters=50))
            assert result.status == "diverged"
            assert not result.converged
            assert len(result.history) < 50
            last = result.history[-1]
            assert not (np.isfinite(last.r) and np.isfinite(last.s))
            earlier = result.history[:-1]
            assert all(np.isfinite(st.r) and np.isfinite(st.s) for st in earlier)

    def test_growing_residual_stops_as_diverged(self, monkeypatch):
        # a y round that doubles y: r grows while finite, and the run stops
        # at the first r past DIVERGENCE_FACTOR times the larger of its
        # smallest earlier value and the tolerance
        def doubling(state):
            np.copyto(state.y_prev, state.y)
            state.y *= 2.0

        monkeypatch.setattr(engine, "y_update_round", doubling)
        result = run(generate_topology("line", 5), SolverConfig(max_iters=500))
        assert result.status == "diverged"
        r = [st.r for st in result.history]
        assert len(r) < 500 and np.isfinite(r).all()
        assert all(np.isfinite(st.s) for st in result.history)
        tol = 1e-4 * math.sqrt(5)
        bound = [engine.DIVERGENCE_FACTOR * max(min(r[:k]), tol) for k in range(1, len(r))]
        assert r[-1] > bound[-1]
        assert all(rk <= b for rk, b in zip(r[1:-1], bound))

    def test_history_is_deterministic(self):
        model = generate_topology("line", 4)
        config = SolverConfig(max_iters=80)
        h1 = run(model, config).history
        h2 = run(model, config).history
        assert [(st.r, st.s, st.objective) for st in h1] == [
            (st.r, st.s, st.objective) for st in h2
        ]

    def test_history_does_not_depend_on_the_blas_thread_count(self):
        # fat-tree 255 abc has 16785 consensus rows and 14490 y entries,
        # long enough that a BLAS dot product splits them across threads
        script = (
            "from radialopf import SolverConfig, TopologyTemplate, generate_topology, run\n"
            "model = generate_topology('fat-tree', 255, TopologyTemplate(phases='abc'))\n"
            "for st in run(model, SolverConfig(max_iters=300)).history:\n"
            "    print(st.r.hex(), st.s.hex(), st.objective.hex())\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env, timeout=300
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == 300
        assert outputs[0] == outputs[1]

    def test_messages_stay_on_tree_edges(self):
        model = generate_topology("fat-tree", 7)
        result = run(model, SolverConfig(max_iters=10), record_messages=True)
        edges = set()
        for ln in model.lines:
            edges.add((ln.bus, ln.parent))
            edges.add((ln.parent, ln.bus))
        assert result.message_pairs
        assert result.message_pairs <= edges

    def test_default_solve_ends_with_hermitian_y_blocks(self, monkeypatch):
        # the y-step solves over every entry of its blocks; its Hermitian
        # blocks stay Hermitian to rounding through a whole solve
        states = []

        def keep(*args):
            states.append(initialize(*args))
            return states[-1]

        monkeypatch.setattr(engine, "initialize", keep)
        model = generate_topology("fat-tree", 13, TopologyTemplate(phases="abc"))
        assert run(model).converged
        (state,) = states
        for bus in model.buses:
            for block in hermitian_blocks(bus_blocks(state, bus.id).y):
                gap = np.linalg.norm(block - block.conj().T)
                assert gap <= 1e-12 * np.linalg.norm(block)

    def test_objective_reported_from_primal(self):
        state = initialize(TWO_BUS)
        agents = views(state)
        # loss objective: sum of real injections over both buses
        expected = float(
            agents[0].x0.s[0].real + agents[1].x0.s[0].real
        )
        assert compute_objective(state) == pytest.approx(expected)

    def test_validation_error_surfaces(self):
        from radialopf.network import FeederValidationError

        model = chain_model([-0.1 + 0j])
        bad = FeederModel(model.buses[:1], model.lines)
        with pytest.raises(FeederValidationError):
            run(bad)

    def test_single_bus_degenerate_network(self):
        # one isolated bus: the x-step reduces to projecting the hat
        # constants and the balance equation pins the injection at zero
        bus = single_phase_bus(0, Box(-0.5, 0.5, -0.5, 0.5), 1.0, 1.0)
        model = FeederModel((bus,), ())
        result = run(model, SolverConfig(max_iters=500))
        assert result.converged
        assert abs(result.solution[0].s[0]) <= 1e-3


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tol_scale=-1.0)
        for bad in (0, -3, 2.5, math.nan, "10", True, None):
            with pytest.raises(ValueError):
                SolverConfig(max_iters=bad)
        for bad in (math.nan, math.inf, -math.inf, True, False, "1", "1e-4", None, 1j):
            with pytest.raises(ValueError, match="rho"):
                SolverConfig(rho=bad)
            with pytest.raises(ValueError, match="tol_scale"):
                SolverConfig(tol_scale=bad)


class TestWeights:
    @pytest.mark.parametrize(
        "model", [mixed_feeder(), generate_topology("fat-tree", 7, TopologyTemplate(phases="ab"))]
    )
    def test_den_sums_the_observation_weights(self, model):
        # the weights on each x entry's observations: 2 own + 1 per child's
        # copy of v, 1 on s, 2|C|+3 own + 1 parent's copy of S, |C|+1 + 1 of ell
        state = State(model, SolverConfig())
        state.x[...] = state.den
        for agent in views(state).values():
            nc = len(agent.children)
            assert np.all(agent.x0.v == nc + 2)
            assert np.all(agent.x0.s == 1)
            if not agent.is_root:
                assert np.all(agent.x0.S == 2 * nc + 4)
                assert np.all(agent.x0.ell == nc + 2)

    def test_y_step_reads_the_x_step_weights(self):
        # M = rho * the weight of the table's rows on every y entry; the
        # solver holds it over rho, in scaled form
        rho = 1.7
        state = State(mixed_feeder(), SolverConfig(rho=rho))
        solver = state.ysolver
        mass = np.bincount(state.obs, state.weight)
        segments = zip(solver.offsets[:-1], solver.offsets[1:])
        for (start, end), m_diag in zip(segments, solver.m_diag, strict=True):
            # on the real and the imaginary part of each entry
            assert np.array_equal(rho * m_diag, np.repeat(rho * mass[start:end], 2))

    def test_y_operators_do_not_depend_on_rho(self):
        # in scaled form the y-step's operators depend only on the network,
        # so a change of rho leaves them as they are
        def operators(rho):
            solver = State(mixed_feeder(), SolverConfig(rho=rho)).ysolver
            return [op for op, _, _ in solver._stacks]

        reference = operators(1.0)
        assert len(reference) > 1
        for rho in (0.3, 3.0):
            for op, ref in zip(operators(rho), reference, strict=True):
                assert np.array_equal(op, ref)


def three_class_feeder():
    """Non-root buses with three, two and one phases, two or more of each."""
    tree = ((0, "abc", None), (1, "abc", 0), (2, "ab", 1), (3, "a", 2), (4, "c", 1),
            (5, "ab", 0), (6, "b", 5), (7, "abc", 0), (8, "a", 7))
    buses, lines = [], []
    for i, letters, parent in tree:
        m = len(letters)
        load = Box(-0.02, -0.01, -0.005, 0.0)
        buses.append(BusSpec(i, PhaseSet(letters), (0.9,) * m, (1.1,) * m, (load,) * m, loss(m)))
        if parent is not None:
            lines.append(LineSpec(i, parent, (0.01 + 0.02j) * np.eye(m)))
    return FeederModel(tuple(buses), tuple(lines))


def random_buffers(rng, state):
    for buf in (state.y, state.u):
        buf[...] = rng.standard_normal(len(buf)) + 1j * rng.standard_normal(len(buf))


@pytest.mark.parametrize(
    "model", [three_class_feeder(), mixed_feeder(), generate_topology("line", 5)]
)
class TestXStepMaps:
    def test_x_step_writes_every_entry(self, model):
        # on finite y and u, the x round leaves no entry of x unwritten
        state = initialize(model, SolverConfig(rho=0.9))
        random_buffers(np.random.default_rng(41), state)
        state.x[...] = complex(np.nan, np.nan)
        x_update_round(state)
        assert np.isfinite(state.x).all()

    def test_square_completion_writes_every_entry_in_place(self, model):
        # the divisions straight into out write every entry of it, bit for
        # bit as the old divisions of a returned temporary did
        state = initialize(model, SolverConfig(rho=0.9))
        random_buffers(np.random.default_rng(44), state)
        y, u, w = state.y[state.obs], state.u, state.weight
        out = np.full(len(state.x), complex(np.nan, np.nan))
        complete_square_x0(y, u, w, state.pair_slots, state.den, out)
        hat = scatter_add(state.pair_slots, w * y - u, len(state.den))
        hat.real /= state.den
        hat.imag /= state.den
        assert out.tobytes() == hat.tobytes()

    def test_x_step_leaves_blocks_hermitian(self, model):
        # every non-root block [[v, S], [S^H, ell]] is exactly Hermitian in x
        state = initialize(model, SolverConfig(rho=0.9))
        random_buffers(np.random.default_rng(43), state)
        x_update_round(state)
        assert sum(len(slab) for slab in state.slabs) == len(model.lines)
        for slab in state.slabs:
            assert np.array_equal(slab, slab.conj().swapaxes(1, 2))

    def test_x_step_reads_no_s_h_corner(self, model, monkeypatch):
        # NaN in every S^H corner of the projection's input, after square
        # completion, does not reach x: the round is finite and equal, bit
        # for bit, to the round without it
        config = SolverConfig(rho=0.9)
        clean, poisoned = initialize(model, config), initialize(model, config)
        for state in (clean, poisoned):
            random_buffers(np.random.default_rng(45), state)
        x_update_round(clean)
        project = engine.solve_x0_matrix

        def poison_then_project(slab):
            m = slab.shape[-1] // 2
            slab[:, m:, :m] = complex(math.nan, math.nan)
            return project(slab)

        monkeypatch.setattr(engine, "solve_x0_matrix", poison_then_project)
        x_update_round(poisoned)
        assert np.isfinite(poisoned.x).all()
        assert poisoned.x.tobytes() == clean.x.tobytes()

    def test_x_step_projects_each_block(self, model):
        # after the x round every non-root bus holds the projection of its
        # own target block and the root its voltage target, bit for bit
        config = SolverConfig(rho=0.9)
        state = initialize(model, config)
        random_buffers(np.random.default_rng(42), state)
        hat = State(model, config)
        complete_square_x0(
            state.y[state.obs], state.u, state.weight, state.pair_slots, state.den, hat.x
        )
        x_update_round(state)
        for i, agent in views(state).items():
            t = bus_blocks(hat, i).x0
            if agent.is_root:
                assert np.array_equal(agent.x0.v, t.v)
                continue
            m = len(agent.bus.phases)
            w = solve_x0_matrix(HatConstants(t.v, t.S, t.ell).block())
            assert np.array_equal(agent.x0.v, w[:m, :m])
            assert np.array_equal(agent.x0.S, w[:m, m:])
            assert np.array_equal(agent.x0.ell, w[m:, m:])

    def test_one_kernel_call_per_layer(self, model, monkeypatch):
        # the PSD projection runs once per non-root phase count, the voltage
        # clamp and the y-step once per iteration, whatever the signatures;
        # only the 4 x 4 and 6 x 6 blocks are decomposed, one eigh call per
        # phase count, and the 2 x 2 blocks of one phase take the closed form
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in (
            (hermitian, "eigh"),
            (engine, "solve_x0_matrix"),
            (engine, "solve_x1_voltage"),
            (YNodeSolver, "assemble_c"),
            (YNodeSolver, "solve"),
        ):
            count(owner, name)
        config = SolverConfig()
        state = initialize(model, config)
        x_update_round(state)
        y_update_round(state)
        multiplier_update_round(state)
        phase_counts = {len(model.bus(ln.bus).phases) for ln in model.lines}
        assert calls == Counter(
            eigh=len(phase_counts - {1}),
            solve_x0_matrix=len(phase_counts),
            solve_x1_voltage=1,
            assemble_c=1,
            solve=1,
        )


@pytest.mark.parametrize("model", [three_class_feeder(), mixed_feeder()])
class TestYLayout:
    def test_segments_observe_the_neighborhood(self, model):
        # with every x entry distinct, each bus's y segment reads exactly its
        # own v, s[, S, ell], its parent's v and each child's S and ell
        state = State(model, SolverConfig())
        state.x[...] = np.arange(len(state.x))
        state.y[...] = state.x[state.pair[: len(state.y)]]
        agents = views(state)
        for i, agent in agents.items():
            y, x = agent.y, agent.x0
            assert np.array_equal(y.v_self, x.v) and np.array_equal(y.s_self, x.s)
            if agent.is_root:
                assert y.S_self is None and y.v_parent is None
            else:
                assert np.array_equal(y.S_self, x.S) and np.array_equal(y.ell_self, x.ell)
                assert np.array_equal(y.v_parent, agents[agent.parent].x0.v)
            assert sorted(y.child_flows) == sorted(model.children[i])
            for j, (S, ell) in y.child_flows.items():
                assert np.array_equal(S, agents[j].x0.S) and np.array_equal(ell, agents[j].x0.ell)
        assert state.ysolver.offsets[-1] == len(state.y)

    def test_own_voltage_copies_start_at_x1_v(self, model):
        state = initialize(model)
        copies = slice(len(state.y), None)
        assert np.array_equal(state.y[state.obs[copies]], state.x[state.pair[copies]])
        for agent in views(state).values():
            assert np.array_equal(agent.y.v_self, agent.x1_v)

    def test_one_table_ties_every_copy(self, model):
        # every y entry is observed by one identity row, and each bus's own
        # v entries once more, by the voltage copy; the x-step's den and the
        # y-step's M (over rho) are the table's weight sums per x and per y entry
        rho = 0.8
        state = State(model, SolverConfig(rho=rho))
        ny = len(state.y)
        assert len(state.pair) == len(state.obs) == len(state.weight) == len(state.u)
        assert np.array_equal(state.obs[:ny], np.arange(ny))
        rows = np.bincount(state.obs, minlength=ny)
        assert rows.min() == 1 and rows.max() == 2
        own_v = np.zeros(ny, dtype=bool)
        for start, ctx in zip(state.ysolver.offsets, state.ysolver.ctxs):
            own_v[start : start + len(ctx.phases) ** 2] = True
        assert np.array_equal(rows == 2, own_v)
        assert np.all(state.weight[:ny][own_v] == 2) and np.all(state.weight[ny:] == 1)
        # each bus's voltage rows hold its voltage copy, one entry each, in
        # the order of the own v entries that they observe; no identity row
        # holds a copy
        for start, ctx in zip(state.ysolver.offsets, state.ysolver.ctxs):
            size = len(ctx.phases) ** 2
            rows = ny + np.flatnonzero((state.obs[ny:] >= start) & (state.obs[ny:] < start + size))
            assert np.array_equal(state.obs[rows], start + np.arange(size))
            assert np.array_equal(state.pair[rows], state.v_copy[ctx.bus_id].ravel())
        assert len(np.unique(state.pair[ny:])) == len(state.pair) - ny
        assert not np.isin(state.pair[ny:], state.pair[:ny]).any()
        # den: the weight sums on observed entries, 1 on the S^H corners,
        # which no row observes
        sums = np.bincount(state.pair, state.weight, len(state.x))
        corners = np.zeros(len(state.x), dtype=bool)
        for _, block, kinds in state._groups:
            m = kinds[0].shape[-1]
            corners[block[:, m:, :m]] = True  # empty at the root
        assert corners.sum() == sum(len(model.bus(ln.bus).phases) ** 2 for ln in model.lines)
        assert np.all(sums[corners] == 0) and np.all(sums[~corners] > 0)
        assert np.array_equal(state.den, np.where(corners, 1.0, sums))
        mass = np.bincount(state.obs, state.weight, ny)
        solver = state.ysolver
        segments = zip(solver.offsets[:-1], solver.offsets[1:])
        for (start, end), m_diag in zip(segments, solver.m_diag, strict=True):
            assert np.array_equal(rho * m_diag, np.repeat(rho * mass[start:end], 2))
