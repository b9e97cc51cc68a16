import math

import numpy as np
import pytest
from conftest import bus_blocks
from oracle import oracle_opf

from radialopf.engine import (
    SolverConfig,
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
)
from radialopf.subproblems import XBlock
from radialopf.verify import check_bfm_feasibility, check_rank1

INF = float("inf")


def two_bus(z, region, v0=1.0):
    loss = (ObjectiveCoeffs(0.0, 1.0),)
    root = BusSpec(0, PhaseSet("a"), (v0,), (v0,), (Box(-INF, INF, -INF, INF),), loss)
    child = BusSpec(1, PhaseSet("a"), (0.9025,), (1.1025,), (region,), loss)
    return FeederModel((root, child), (LineSpec(1, 0, np.array([[z]])),))


def exact_flow_solution(model, s1):
    """Closed-form single-phase power flow for a 2-bus feeder; an array of
    child injections gives arrays in each block's last axis."""
    z = complex(model.lines[0].z[0, 0])
    v0 = model.bus(0).v_lo[0]
    w = v0 + 2.0 * (np.conj(z) * s1).real
    zsq = abs(z) ** 2
    if zsq == 0:
        ell = abs(s1) ** 2 / v0
        v1 = v0
    else:
        disc = w * w - 4.0 * zsq * abs(s1) ** 2
        ell = (w - np.sqrt(disc)) / (2.0 * zsq)
        v1 = w - zsq * ell
    s0 = -s1 + z * ell
    return {
        0: XBlock(v=np.array([[v0 + 0j]]), s=np.array([s0])),
        1: XBlock(
            v=np.array([[v1 + 0j]]),
            s=np.array([s1]),
            S=np.array([[s1]]),
            ell=np.array([[ell + 0j]]),
        ),
    }


class TestBfmFeasibility:
    def test_exact_flow_passes(self):
        model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, -0.05, -0.05))
        solution = exact_flow_solution(model, -0.1 - 0.05j)
        report = check_bfm_feasibility(solution, model, tol=1e-10)
        assert report.ok
        assert report.max_residual <= 1e-10

    def test_perturbation_flags_bus(self):
        model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, -0.05, -0.05))
        solution = exact_flow_solution(model, -0.1 - 0.05j)
        solution[1].v[0, 0] += 0.1
        report = check_bfm_feasibility(solution, model, tol=1e-6)
        assert not report.ok
        assert any("bus 1" in line for line in report.violations())

    def test_zero_impedance_equal_voltages(self):
        model = two_bus(0j, Box(-0.1, -0.1, 0.0, 0.0))
        solution = exact_flow_solution(model, -0.1 + 0j)
        report = check_bfm_feasibility(solution, model, tol=1e-12)
        assert solution[1].v[0, 0] == pytest.approx(solution[0].v[0, 0])
        assert report.voltage_drop[1] <= 1e-12

    def test_shape_mismatch_raises(self):
        model = two_bus(0.02j, Box(-0.1, -0.1, 0.0, 0.0))
        solution = exact_flow_solution(model, -0.1 + 0j)
        solution[1] = XBlock(v=np.eye(2, dtype=complex), s=np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            check_bfm_feasibility(solution, model)

    @pytest.mark.parametrize("field", ["S", "ell"])
    def test_mis_shaped_branch_block_raises(self, field):
        # a (1, 2) S or a 1-d ell would broadcast into the residuals
        model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, -0.05, -0.05))
        solution = exact_flow_solution(model, -0.1 - 0.05j)
        block = getattr(solution[1], field)
        setattr(solution[1], field, block[:, [0, 0]] if field == "S" else block[0])
        with pytest.raises(ValueError, match="^bus 1: solution shape mismatch$"):
            check_bfm_feasibility(solution, model)

    def test_unknown_bus_raises(self):
        model = two_bus(0.02j, Box(-0.1, -0.1, 0.0, 0.0))
        solution = exact_flow_solution(model, -0.1 + 0j)
        solution[99] = solution[1]
        with pytest.raises(ValueError, match="bus 99"):
            check_bfm_feasibility(solution, model)


class TestRank1:
    def test_outer_product_block_is_exact(self):
        model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, 0.0, 0.0))
        V = np.array([1.0 + 0.05j])
        I = np.array([-0.2 + 0.1j])
        solution = {
            0: XBlock(v=np.array([[1.0 + 0j]]), s=np.zeros(1, dtype=complex)),
            1: XBlock(
                v=np.outer(V, V.conj()),
                s=np.zeros(1, dtype=complex),
                S=np.outer(V, I.conj()),
                ell=np.outer(I, I.conj()),
            ),
        }
        report = check_rank1(solution, model)
        assert report.max_ratio <= 1e-12
        assert report.exact

    def test_identity_block_ratio_one(self):
        model = two_bus(0.02j, Box(-0.1, -0.1, 0.0, 0.0))
        solution = {
            0: XBlock(v=np.array([[1.0 + 0j]]), s=np.zeros(1, dtype=complex)),
            1: XBlock(
                v=np.array([[1.0 + 0j]]),
                s=np.zeros(1, dtype=complex),
                S=np.zeros((1, 1), dtype=complex),
                ell=np.array([[1.0 + 0j]]),
            ),
        }
        report = check_rank1(solution, model)
        assert report.ratios[1] == pytest.approx(1.0)
        assert not report.exact


class TestNonFinite:
    """A NaN in a solution fails both checks instead of slipping past
    comparisons that are false on NaN."""

    @pytest.fixture
    def case(self):
        model = generate_topology("line", 4, TopologyTemplate(phases="a"))
        solution = run(model, SolverConfig(max_iters=5)).solution
        solution[3].ell[...] = math.nan
        return model, solution

    def test_nan_residual_is_a_violation(self, case):
        model, solution = case
        report = check_bfm_feasibility(solution, model, tol=1e3)
        assert math.isnan(report.voltage_drop[3]) and math.isnan(report.power_balance[2])
        assert math.isnan(report.max_residual)
        assert not report.ok
        assert report.violations() == [
            "bus 3: voltage-drop residual nan",
            "bus 2: power-balance residual nan",
        ]

    def test_nan_block_has_nan_ratio(self, case):
        model, solution = case
        report = check_rank1(solution, model)
        assert math.isnan(report.ratios[3])
        assert all(math.isfinite(report.ratios[i]) for i in (1, 2))
        assert math.isnan(report.max_ratio)
        assert not report.exact


@pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf])
def test_checks_reject_a_bad_tolerance(bad):
    model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, -0.05, -0.05))
    solution = exact_flow_solution(model, -0.1 - 0.05j)
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0"):
        check_bfm_feasibility(solution, model, bad)
    with pytest.raises(ValueError, match="^rank threshold must be a finite number >= 0"):
        check_rank1(solution, model, bad)


class TestReportDocuments:
    def test_reports_serialize_to_documents(self):
        import json

        model = two_bus(0.02 + 0.04j, Box(-0.1, -0.1, -0.05, -0.05))
        solution = exact_flow_solution(model, -0.1 - 0.05j)
        bfm = check_bfm_feasibility(solution, model, tol=1e-9)
        rank = check_rank1(solution, model)
        doc = json.loads(json.dumps({"bfm": bfm.as_dict(), "rank1": rank.as_dict()}))
        assert doc["bfm"]["ok"] is True
        assert "1" in doc["bfm"]["voltage_drop"]
        assert doc["rank1"]["exact"] is True
        assert doc["rank1"]["ratios"]["1"] <= 1e-10


def grid_opf(model, step):
    """The best point of a grid scan, at spacing ``step``, of a 2-bus
    feeder's child box, each point's flow from ``exact_flow_solution``."""
    box, child = model.bus(1).regions[0], model.bus(1)

    def axis(lo, hi):
        return np.append(np.arange(lo, hi, step), hi)

    s1 = (axis(box.p_lo, box.p_hi)[:, None] + 1j * axis(box.q_lo, box.q_hi)).ravel()
    with np.errstate(invalid="ignore"):  # no flow: NaN, rejected by the band
        solution = exact_flow_solution(model, s1)
    v1 = solution[1].v[0, 0].real
    obj = model.bus(0).cost[0].value(solution[0].s[0].real) + child.cost[0].value(s1.real)
    return obj[(child.v_lo[0] <= v1) & (v1 <= child.v_hi[0])].min()


class TestBruteForce:
    """The oracle on the 2-bus family, against closed forms and a grid scan."""

    def test_zero_load_zero_loss(self):
        model = two_bus(0.02 + 0.04j, Box(0.0, 0.0, 0.0, 0.0))
        best, solution = oracle_opf(model)
        assert best == pytest.approx(0.0, abs=1e-12)
        assert solution[1].s[0] == 0

    def test_singleton_box_matches_closed_form(self):
        s1 = -0.12 - 0.06j
        z = 0.03 + 0.05j
        model = two_bus(z, Box(s1.real, s1.real, s1.imag, s1.imag))
        best, solution = oracle_opf(model)
        assert solution[1].s[0] == pytest.approx(s1)
        ell = exact_flow_solution(model, s1)[1].ell[0, 0].real
        # loss objective: total injection equals the line loss Re(z) * ell
        assert best == pytest.approx(z.real * ell, abs=1e-12)

    @pytest.mark.parametrize(
        "z, box",
        [
            (0.05 + 0.1j, Box(-0.35, -0.25, -0.25, 0.25)),
            (0.01 + 0.02j, Box(-0.3, -0.2, -0.1, 0.1)),
            (0.03 + 0.05j, Box(-0.2, -0.2, -0.1, 0.1)),
            (0.04 + 0.03j, Box(-0.2, -0.1, 0.05, 0.05)),
        ],
    )
    def test_at_most_the_best_grid_point(self, z, box):
        model = two_bus(z, box)
        best, _ = oracle_opf(model)
        grid = grid_opf(model, 1e-3)
        assert grid * (1.0 - 1e-5) <= best <= grid

    def test_infeasible_when_voltage_band_excludes_flow(self):
        # a huge fixed load on a weak line: no power flow exists, so the
        # sweep does not converge
        model = two_bus(0.5 + 0.5j, Box(-0.6, -0.6, 0.0, 0.0))
        with pytest.raises(ValueError, match="did not converge"):
            oracle_opf(model)


class TestOracleConsistency:
    def test_admm_brackets_oracle(self):
        model = two_bus(0.05 + 0.1j, Box(-0.35, -0.25, -0.25, 0.25))
        result = run(model, SolverConfig(tol_scale=1e-6))
        assert result.converged
        best, _ = oracle_opf(model)
        obj = result.history[-1].objective
        assert obj >= best - 1e-6
        rank = check_rank1(result.solution, model)
        if rank.exact:
            assert obj <= best + 1e-3 * abs(best) + 1e-6

    def test_y_outputs_pass_bfm_check(self):
        # map one agent's observation set into solution form; the y step
        # enforces the equations exactly
        model = two_bus(0.05 + 0.1j, Box(-0.35, -0.25, -0.25, 0.25))
        config = SolverConfig()
        state = initialize(model, config)
        for _ in range(4):
            x_update_round(state)
            y_update_round(state)
            multiplier_update_round(state)
        root, leaf = (bus_blocks(state, i).y for i in (0, 1))
        solution = {
            0: XBlock(v=leaf.v_parent.copy(), s=root.s_self.copy()),
            1: XBlock(
                v=leaf.v_self.copy(),
                s=leaf.s_self.copy(),
                S=leaf.S_self.copy(),
                ell=leaf.ell_self.copy(),
            ),
        }
        # patch the root balance using the root's own observation of the leaf
        s0 = -(root.child_flows[1][0] - model.lines[0].z @ root.child_flows[1][1]).diagonal()
        solution[0].s = s0
        report = check_bfm_feasibility(
            {
                0: solution[0],
                1: solution[1],
            },
            model,
            tol=1e-9,
        )
        assert report.voltage_drop[1] <= 1e-9
        assert report.power_balance[1] <= 1e-9
