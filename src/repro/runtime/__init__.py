"""Runtimes: numeric local execution, cluster simulation, distributed IPC."""

from .execution import KERNEL_DISPATCH, InitialDataSpec, apply_task, materialize_initial
from .local import (
    assemble_lower,
    assemble_rhs,
    assemble_symmetric,
    execute_graph,
    final_versions,
)
from .simulator import SimReport, simulate
from .bounds import CholeskyBounds, cholesky_bounds
from .distributed import (
    DeadWorkerError,
    DistributedReport,
    ExecutionTimeout,
    execute_distributed,
)
from .faults import (
    FaultPlan,
    LinkDegradation,
    RetryPolicy,
    SimulatedFailure,
    SlowdownWindow,
    WorkerCrash,
)

__all__ = [
    "KERNEL_DISPATCH",
    "InitialDataSpec",
    "apply_task",
    "materialize_initial",
    "execute_graph",
    "final_versions",
    "assemble_lower",
    "assemble_symmetric",
    "assemble_rhs",
    "simulate",
    "SimReport",
    "execute_distributed",
    "DistributedReport",
    "DeadWorkerError",
    "ExecutionTimeout",
    "FaultPlan",
    "SlowdownWindow",
    "LinkDegradation",
    "WorkerCrash",
    "RetryPolicy",
    "SimulatedFailure",
    "CholeskyBounds",
    "cholesky_bounds",
]
