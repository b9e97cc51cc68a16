"""Seeded feeder documents for the benchmark workloads.

Every workload is a fixed list of feeder skeletons: tree shape, phases,
and which phases carry a half-disk DER (upper-case letters). The seed
draws the loads and the DER sizes and prices on them. The iteration count
hardly depends on those, but strongly on the shape and the line
impedances: random tree shapes changed the work of a pass by up to ten
times between seeds (2x2 against 6x6 PSD blocks, 600 against 2600
iterations), and line lengths drawn from 0.9-1.1 still moved it by 5%.
So shapes and impedances are fixed, and runs on different seeds stay
comparable. Feeders are built from the public ``network`` types and reach
the solver only as JSON text.
"""

from __future__ import annotations

import json
import math

import numpy as np

from radialopf.network import (
    Box,
    BusSpec,
    Disk,
    FeederModel,
    LineSpec,
    ObjectiveCoeffs,
    PhaseSet,
    TopologyTemplate,
    feeder_to_dict,
)

WORKLOADS = ("line-1ph", "fat-tree-3ph", "mixed-der")

LOSS = ObjectiveCoeffs(0.0, 1.0)
FREE = Box(-math.inf, math.inf, -math.inf, math.inf)
TEMPLATE = TopologyTemplate()

LINE_SIZES = (5, 6, 7)
FAT_TREE_SIZES = (4,)
# (root phases, ((parent, phases), ...) for buses 1, 2, ... in order).
# Each bus takes a subset of its parent's phases, so the shape signatures
# (own, parent and child phases) differ from bus to bus; 5 of the 13 load
# phases carry a DER.
MIXED_SKELETONS = (
    ("abc", ((0, "aBc"), (1, "Ab"), (1, "C"), (0, "bc"))),
    ("abc", ((0, "aC"), (1, "A"), (1, "c"), (0, "b"))),
)
# Tiny feeders of the same kinds, for the quick self-test.
QUICK_SKELETONS = {
    "line-1ph": ("a", ((0, "a"),)),
    "fat-tree-3ph": ("abc", ((0, "abc"), (0, "abc"))),
    "mixed-der": ("abc", ((0, "aB"), (1, "b"))),
}


def _line(size: int, phases: str):
    return phases, tuple((i - 1, phases) for i in range(1, size))


def _fat_tree(size: int, phases: str):
    return phases, tuple(((i - 1) // 2, phases) for i in range(1, size))


def skeletons(workload: str, quick: bool = False) -> tuple:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if quick:
        return (QUICK_SKELETONS[workload],)
    if workload == "line-1ph":
        return tuple(_line(n, "a") for n in LINE_SIZES)
    if workload == "fat-tree-3ph":
        return tuple(_fat_tree(n, "abc") for n in FAT_TREE_SIZES)
    return MIXED_SKELETONS


def _region(marked_phase: str, rng) -> tuple:
    if marked_phase.isupper():
        # Price below the substation's (beta 1) and a curvature that puts
        # the DER optimum near its nameplate: it ends on the circle on
        # some phases and inside on others.
        disk = Disk(float(rng.uniform(0.002, 0.005)))
        cost = ObjectiveCoeffs(float(rng.uniform(100.0, 300.0)), float(rng.uniform(0.4, 0.7)))
        return disk, cost
    p = -float(rng.uniform(0.001, 0.003))
    q = float(rng.uniform(0.0005, 0.0015))
    return Box(p, p, -q, q), LOSS


def _feeder(skeleton, rng) -> FeederModel:
    root_phases, rest = skeleton
    n0 = len(root_phases)
    buses = [
        BusSpec(0, PhaseSet(root_phases), (1.0,) * n0, (1.0,) * n0, (FREE,) * n0, (LOSS,) * n0)
    ]
    lines = []
    for i, (parent, marked) in enumerate(rest, start=1):
        m = len(marked)
        regions, cost = zip(*(_region(ch, rng) for ch in marked))
        phases = marked.lower()
        lo = (TEMPLATE.v_lo,) * m
        hi = (TEMPLATE.v_hi,) * m
        buses.append(BusSpec(i, PhaseSet(phases), lo, hi, regions, cost))
        lines.append(LineSpec(i, parent, TopologyTemplate(phases=phases).impedance()))
    return FeederModel(tuple(buses), tuple(lines))


def feeder_documents(workload: str, seed: int, quick: bool = False) -> list[str]:
    """JSON feeder documents of one pass over ``workload`` for ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return [json.dumps(feeder_to_dict(_feeder(sk, rng))) for sk in skeletons(workload, quick)]
