"""Distributed ADMM solver for OPF on unbalanced radial distribution feeders."""

from .engine import IterationStats, RunResult, SolverConfig, run
from .hermitian import psd_project
from .network import (
    Box,
    Disk,
    FeederModel,
    PhaseSet,
    TopologyTemplate,
    generate_topology,
    load_feeder,
    loads_feeder,
    phase_lift,
    phase_project,
    validate_radial,
)
from .verify import check_bfm_feasibility, check_rank1

__all__ = [
    "Box",
    "Disk",
    "FeederModel",
    "IterationStats",
    "PhaseSet",
    "RunResult",
    "SolverConfig",
    "TopologyTemplate",
    "check_bfm_feasibility",
    "check_rank1",
    "generate_topology",
    "load_feeder",
    "loads_feeder",
    "phase_lift",
    "phase_project",
    "psd_project",
    "run",
    "validate_radial",
]

__version__ = "0.1.0"
