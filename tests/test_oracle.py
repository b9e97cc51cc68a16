"""The phasor-OPF oracle of ``oracle.py``: its optima on the baseline
feeders, the branch-flow feasibility and rank of its points, and the
feeders it does not cover. Its 2-bus checks, against closed forms and a
grid scan, are in ``test_verify.py``."""

from dataclasses import replace

import pytest
from oracle import oracle_opf
from test_acceptance import four_bus_model
from test_verify import two_bus

from radialopf.network import Box, Disk, FeederModel, TopologyTemplate, generate_topology
from radialopf.verify import check_bfm_feasibility, check_rank1

INF = float("inf")


@pytest.mark.parametrize(
    "model, optimum",
    [
        (generate_topology("line", 10), 2.2807e-6),
        (generate_topology("fat-tree", 13, TopologyTemplate(phases="abc")), 2.0132e-6),
        (four_bus_model(), 5.1599e-5),
    ],
    ids=["line-10-a", "fat-tree-13-abc", "four-bus-half-disk"],
)
def test_baseline_optimum_at_a_rank1_flow(model, optimum):
    best, solution = oracle_opf(model)
    assert abs(best - optimum) <= 1e-4 * optimum
    assert check_bfm_feasibility(solution, model, tol=1e-10).ok
    assert check_rank1(solution, model).max_ratio <= 1e-12
    for b in model.buses[1:]:
        for s, region in zip(solution[b.id].s, b.regions):
            if isinstance(region, Box):
                assert region.p_lo <= s.real <= region.p_hi
                assert region.q_lo <= s.imag <= region.q_hi
            else:
                assert s.real >= 0.0 and abs(s) <= region.s_max * (1.0 + 1e-12)


def with_bus(model, i, **changes):
    buses = tuple(replace(b, **changes) if b.id == i else b for b in model.buses)
    return FeederModel(buses, model.lines)


LOAD = two_bus(0.05 + 0.1j, Box(-0.3, -0.3, 0.0, 0.0))  # v1 about 0.97
SOURCE = two_bus(0.05 + 0.1j, Box(0.3, 0.3, 0.0, 0.0))  # v1 about 1.03


@pytest.mark.parametrize(
    "model, message",
    [
        (with_bus(LOAD, 0, regions=(Box(-1.0, 1.0, -INF, INF),)), "root's region is bounded"),
        (with_bus(LOAD, 0, regions=(Disk(1.0),)), "root's region is bounded"),
        (with_bus(LOAD, 0, v_lo=(0.9,)), "root's voltage is not fixed"),
        (with_bus(LOAD, 1, v_lo=(0.98,)), "bus 1: a voltage bound binds or is violated"),
        (with_bus(SOURCE, 1, v_hi=(1.02,)), "bus 1: a voltage bound binds or is violated"),
    ],
    ids=["root-box", "root-disk", "root-voltage-band", "below-v-lo", "above-v-hi"],
)
def test_uncovered_feeders_raise(model, message):
    with pytest.raises(ValueError, match=message):
        oracle_opf(model)

