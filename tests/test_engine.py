import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import bus_blocks, direct_penalty, hermitian_blocks

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
from radialopf.subproblems import HatConstants, YNodeSolver, complete_square_x0, solve_x0_matrix

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

    def test_multipliers_start_at_zero(self):
        agents = views(initialize(TWO_BUS))
        assert np.all(agents[1].lam1 == 0)
        assert np.all(agents[1].mu.S_self == 0)
        assert np.all(agents[1].mu.v_parent == 0)

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
        before = {i: agents[i].x0.copy() for i in agents}
        x_update_round(state, config)
        y_update_round(state, config)
        multiplier_update_round(state, config.rho)
        for i in agents:
            assert np.allclose(agents[i].x0.v, before[i].v, atol=1e-9)
            assert np.allclose(agents[i].x0.s, before[i].s, atol=1e-9)
            assert np.all(agents[i].lam1 == 0) or np.allclose(agents[i].lam1, 0, atol=1e-12)
        r, s = compute_residuals(state, config.rho)
        assert r <= 1e-10 and s <= 1e-10

    def test_run_converges_immediately_at_fixed_point(self):
        model = chain_model([0j], z=0j, beta=0.0)
        result = run(model)
        assert result.converged and len(result.history) == 1

    def test_multiplier_scalar_step(self):
        state = initialize(TWO_BUS)
        agent = bus_blocks(state, 0)
        agent.x0.s[...] = agent.y.s_self + 2.0
        multiplier_update_round(state, rho=0.5)
        assert agent.mu.s_self[0] == pytest.approx(1.0)

    def test_multiplier_stationary_at_consensus(self):
        state = initialize(TWO_BUS)
        multiplier_update_round(state, rho=1.0)
        for agent in views(state).values():
            assert np.allclose(agent.mu.v_self, 0) and np.allclose(agent.mu.s_self, 0)

    def test_multiplier_shapes_preserved(self):
        model = generate_topology("fat-tree", 5, TopologyTemplate(phases="ab"))
        config = SolverConfig()
        state = initialize(model, config)
        x_update_round(state, config)
        y_update_round(state, config)
        multiplier_update_round(state, config.rho)
        for agent in views(state).values():
            n = len(agent.bus.phases)
            assert agent.lam1.shape == (n, n)
            assert agent.mu.s_self.shape == (n,)
            if not agent.is_root:
                assert agent.mu.v_parent.shape == agent.y.v_parent.shape

    def test_residual_is_euclidean(self):
        state = initialize(chain_model([0j], z=0j))
        root = bus_blocks(state, 0)
        root.x0.s[...] = root.y.s_self + 3.0
        root.x1_v[...] = root.y.v_self + 4.0
        r, s = compute_residuals(state, rho=1.0)
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
            x_update_round(state, config)
            y_update_round(state, config)
            multiplier_update_round(state, config.rho)
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
            x_update_round(state, config)
            y_update_round(state, config)
            multiplier_update_round(state, config.rho)
        before = {i: agents[i].x0.copy() for i in agents}
        x_update_round(state, config)
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
            x_update_round(state, config)
            y_update_round(state, config)
            multiplier_update_round(state, config.rho)
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
        x_update_round(state, config, 1)
        r, _ = compute_residuals(state, config.rho)
        assert not math.isfinite(r)

    def test_rounds_reject_another_rho(self):
        # the state's constants are built for its own penalty
        state = initialize(TWO_BUS, SolverConfig(rho=1.0))
        x, y = state.x.copy(), state.y.copy()
        other = SolverConfig(rho=2.0)
        for step in (x_update_round, y_update_round):
            with pytest.raises((ValueError, SolverError), match="rho"):
                step(state, other, 1)
        assert np.array_equal(state.x, x) and np.array_equal(state.y, y)

    def test_kernel_errors_surface_with_their_iteration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("kernel failed")

        config = SolverConfig()
        state = initialize(chain_model([-0.1 + 0j]), config)
        monkeypatch.setattr(engine, "solve_x0_matrix", fail)
        with pytest.raises(SolverError, match="iteration 7"):
            x_update_round(state, config, 7)
        monkeypatch.setattr(YNodeSolver, "solve", fail)
        with pytest.raises(SolverError, match="iteration 7"):
            y_update_round(state, config, 7)


class TestRun:
    def test_two_bus_converges_to_oracle(self):
        from radialopf.verify import brute_force_opf

        model = chain_model([-0.25 + 0.05j])
        # widen the load band so the solver actually optimizes
        buses = list(model.buses)
        buses[1] = single_phase_bus(1, Box(-0.3, -0.2, -0.1, 0.1))
        model = FeederModel(tuple(buses), model.lines)
        result = run(model, SolverConfig(tol_scale=1e-6))
        assert result.converged
        best, _ = brute_force_opf(model, grid_step=1e-3)
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
        # the loader rejects a NaN cost, so the model is built in code
        model = chain_model([-0.1 + 0j], beta=float("nan"))
        result = run(model, SolverConfig(max_iters=50))
        assert result.status == "diverged"
        assert not result.converged
        assert len(result.history) < 50
        last = result.history[-1]
        assert not (np.isfinite(last.r) and np.isfinite(last.s))
        earlier = result.history[:-1]
        assert all(np.isfinite(st.r) and np.isfinite(st.s) for st in earlier)

    def test_history_is_deterministic(self):
        model = generate_topology("line", 4)
        config = SolverConfig(max_iters=80)
        h1 = run(model, config).history
        h2 = run(model, config).history
        assert [(st.r, st.s, st.objective) for st in h1] == [
            (st.r, st.s, st.objective) for st in h2
        ]

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
        # M = rho * the weight of the table's rows on every y entry
        rho = 1.7
        state = State(mixed_feeder(), SolverConfig(rho=rho))
        solver = state.ysolver
        mass = np.bincount(state.obs, state.weight)
        segments = zip(solver.offsets[:-1], solver.offsets[1:])
        for (start, end), m_diag in zip(segments, solver.m_diag, strict=True):
            # on the real and the imaginary part of each entry
            assert np.array_equal(m_diag, np.repeat(rho * mass[start:end], 2))


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
    for buf in (state.y, state.mu):
        buf[...] = rng.standard_normal(len(buf)) + 1j * rng.standard_normal(len(buf))


@pytest.mark.parametrize(
    "model", [three_class_feeder(), mixed_feeder(), generate_topology("line", 5)]
)
class TestXStepMaps:
    def test_gather_builds_each_block_target(self, model):
        # row r of a class's gather index, applied to [hat, conj(hat)], is
        # exactly HatConstants.block() of the bus whose v[0, 0] it reads
        state = State(model, SolverConfig())
        for i, agent in views(state).items():
            agent.x0.v[...] = i
        owners = [state.x[index[:, 0, 0]].real.astype(int) for index in state.blocks]
        assert sorted(np.concatenate(owners)) == sorted(ln.bus for ln in model.lines)
        phase_counts = {len(model.bus(ln.bus).phases) for ln in model.lines}
        assert [index.shape[-1] // 2 for index in state.blocks] == sorted(phase_counts)

        rng = np.random.default_rng(41)
        hat = rng.standard_normal(len(state.x)) + 1j * rng.standard_normal(len(state.x))
        state.x[...] = hat
        agents = views(state)
        targets = np.concatenate([hat, hat.conj()])
        for index, ids in zip(state.blocks, owners):
            for row, i in zip(index, ids):
                t = agents[i].x0
                assert np.array_equal(targets[row], HatConstants(t.v, t.S, t.ell).block())

    def test_scatter_writes_every_matrix_entry_once(self, model):
        state = State(model, SolverConfig())
        writes = np.bincount(state.x_dst, minlength=len(state.x))
        expected = np.ones(len(state.x), dtype=int)
        expected[state.s_index] = 0
        assert np.array_equal(writes, expected)

    def test_x_step_projects_each_block(self, model):
        # after the x round every non-root bus holds the projection of its
        # own target block and the root its voltage target, bit for bit
        config = SolverConfig(rho=0.9)
        state = initialize(model, config)
        random_buffers(np.random.default_rng(42), state)
        hat = State(model, config)
        hat.x[...] = complete_square_x0(
            state.y[state.obs], state.mu, state.weight, state.pair_slots, state.den, config.rho
        )
        x_update_round(state, config)
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
        x_update_round(state, config)
        y_update_round(state, config)
        multiplier_update_round(state, config.rho)
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
        # y-step's M are the table's weight sums per x and per y entry
        rho = 0.8
        state = State(model, SolverConfig(rho=rho))
        ny = len(state.y)
        assert len(state.pair) == len(state.obs) == len(state.weight) == len(state.mu)
        assert np.array_equal(state.obs[:ny], np.arange(ny))
        rows = np.bincount(state.obs, minlength=ny)
        assert rows.min() == 1 and rows.max() == 2
        own_v = np.zeros(ny, dtype=bool)
        for start, ctx in zip(state.ysolver.offsets, state.ysolver.ctxs):
            own_v[start : start + len(ctx.phases) ** 2] = True
        assert np.array_equal(rows == 2, own_v)
        assert np.all(state.weight[:ny][own_v] == 2) and np.all(state.weight[ny:] == 1)
        # the voltage copies' rows hold the end of x, one entry each
        end = len(state.x)
        assert np.array_equal(np.sort(state.pair[ny:]), np.arange(end - own_v.sum(), end))
        assert np.array_equal(state.den, np.bincount(state.pair, state.weight, len(state.x)))
        mass = np.bincount(state.obs, state.weight, ny)
        solver = state.ysolver
        segments = zip(solver.offsets[:-1], solver.offsets[1:])
        for (start, end), m_diag in zip(segments, solver.m_diag, strict=True):
            assert np.array_equal(m_diag, np.repeat(rho * mass[start:end], 2))
