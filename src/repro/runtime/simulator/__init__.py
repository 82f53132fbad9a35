"""Discrete-event cluster simulator (StarPU-like runtime timing model)."""

from .engine import simulate
from .fast_engine import simulate_compiled
from .harness import SimReport
from .network import NetworkSim, Transfer
from .analysis import (
    CriticalPathBreakdown,
    critical_path_breakdown,
    iteration_profile,
    utilization_timeline,
)

__all__ = [
    "simulate",
    "simulate_compiled",
    "SimReport",
    "NetworkSim",
    "Transfer",
    "CriticalPathBreakdown",
    "critical_path_breakdown",
    "iteration_profile",
    "utilization_timeline",
]
