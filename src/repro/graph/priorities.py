"""Task priorities for the dynamic runtime scheduler.

StarPU schedules ready tasks by priority inside each node; Chameleon
assigns higher priorities to tasks that unlock the critical path (the
POTRF-TRSM spine).  Two policies are provided:

* :func:`set_iteration_priorities` — the static heuristic Chameleon uses:
  earlier iterations first, and within an iteration POTRF > TRSM > REDUCE >
  SYRK > GEMM, so panel tasks overtake trailing updates.
* :func:`set_critical_path_priorities` — exact bottom-level (longest path
  to any sink, weighted by task durations), the classical HEFT upward rank
  (:func:`critical_path_priorities` computes it and leaves the graph alone).
"""

from __future__ import annotations

from collections.abc import Callable

from .task import Task, TaskGraph

__all__ = ["set_iteration_priorities", "critical_path_priorities",
           "set_critical_path_priorities", "KIND_RANK"]

#: Intra-iteration urgency; larger runs earlier among equal iterations.
KIND_RANK = {
    "POTRF": 7,
    "GETRF": 7,
    "TRTRI": 7,
    "LAUUM": 7,
    "TRSM": 6,
    "TRSM_L": 6,
    "TRSM_U": 6,
    "TRSM_RINV": 6,
    "TRSM_LINV": 6,
    "TRMM": 6,
    "TRSM_SOLVE": 6,
    "TRSM_SOLVE_T": 6,
    "REDUCE": 5,
    "REMAP": 4,
    "SYRK": 2,
    "SYRK_T": 2,
    "GEMM_RHS": 1,
    "GEMM_RHS_T": 1,
    "GEMM": 0,
    "GEMM_LU": 0,
    "GEMM_INV": 0,
    "GEMM_T": 0,
}


def set_iteration_priorities(graph: TaskGraph) -> None:
    """Priority = earlier iteration first, panel kernels before updates."""
    for t in graph.tasks:
        t.priority = -t.iteration * 16 + KIND_RANK.get(t.kind, 0)


def critical_path_priorities(
    graph: TaskGraph, duration_fn: Callable[[Task], float]
) -> list[float]:
    """Bottom level per task: duration-weighted longest path to a sink.

    Relies on the builder invariant that the task list is topologically
    ordered, so one reverse sweep suffices.
    """
    n = len(graph.tasks)
    bottom = [0.0] * n
    # consumers[tid] is filled before tid is processed in the reverse sweep.
    consumers: list = [[] for _ in range(n)]
    for t in graph.tasks:
        for k in t.reads:
            pid = graph.producer.get(k)
            if pid is not None:
                consumers[pid].append(t.id)
    for t in reversed(graph.tasks):
        succ = max((bottom[c] for c in consumers[t.id]), default=0.0)
        bottom[t.id] = duration_fn(t) + succ
    return bottom


def set_critical_path_priorities(
    graph: TaskGraph, duration_fn: Callable[[Task], float]
) -> None:
    """Write :func:`critical_path_priorities` into ``Task.priority``."""
    for t, prio in zip(graph.tasks, critical_path_priorities(graph, duration_fn)):
        t.priority = prio
