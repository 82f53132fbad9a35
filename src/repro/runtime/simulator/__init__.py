"""Discrete-event cluster simulator (StarPU-like runtime timing model)."""

from .engine import simulate
from .fast_engine import simulate_compiled
from .harness import SimReport
from .network import NetworkSim, Transfer

__all__ = [
    "simulate",
    "simulate_compiled",
    "SimReport",
    "NetworkSim",
    "Transfer",
]
