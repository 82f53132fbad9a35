"""Structural validation and statistics of task graphs.

Used by the test suite and as runtime sanity checks: topological order of
the task list, single-producer discipline, expected task counts for each
operation, and per-kind/per-node summaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .task import TaskGraph

__all__ = [
    "validate_graph",
    "kind_counts",
    "node_task_counts",
    "expected_cholesky_counts",
    "expected_trtri_counts",
    "expected_lauum_counts",
    "GraphStats",
    "graph_stats",
]


def validate_graph(graph: TaskGraph) -> None:
    """Raise AssertionError on structural inconsistencies.

    Checks: task ids are unique, every read has a producer emitted
    earlier in the list or an initial declaration (=> the list order is
    a topological order and the graph is acyclic), no task reads the
    version it writes (self-dependency), every version has at most one
    producer (guaranteed by construction, re-verified), and node ids are
    non-negative.  The compiled form is then re-checked by the schedule
    verifier (:mod:`repro.analyze.schedule`) so the object and array
    validation paths cannot drift apart.
    """
    seen = set(graph.initial)
    ids = set()
    for t in graph.tasks:
        if t.id in ids:
            raise AssertionError(f"duplicate task id {t.id} ({t})")
        ids.add(t.id)
        if t.node < 0:
            raise AssertionError(f"task {t} placed on negative node")
        if t.write is not None and t.write in t.reads:
            raise AssertionError(
                f"task {t} reads its own output {t.write} "
                "(self-dependency)"
            )
        for k in t.reads:
            if k not in seen:
                raise AssertionError(
                    f"task {t} reads {k} before it is produced: "
                    "task list is not a topological order"
                )
        if t.write is not None:
            if t.write in seen:
                raise AssertionError(f"data {t.write} written twice")
            seen.add(t.write)

    # One validation path: the schedule verifier re-derives the same
    # invariants from the compiled arrays.
    # Imported lazily — repro.analyze depends on this package.
    from ..analyze.schedule import verify_compiled
    from .compiled import compile_graph

    report = verify_compiled(compile_graph(graph))
    if not report.ok():
        raise AssertionError(
            "schedule verifier rejects the compiled graph:\n"
            + report.render()
        )


def kind_counts(graph: TaskGraph) -> dict[str, int]:
    """Number of tasks of each kernel kind."""
    return dict(Counter(t.kind for t in graph.tasks))


def node_task_counts(graph: TaskGraph, num_nodes: int) -> dict[int, int]:
    """Number of tasks placed on each node."""
    c = Counter(t.node for t in graph.tasks)
    return {n: c.get(n, 0) for n in range(num_nodes)}


def expected_cholesky_counts(N: int) -> dict[str, int]:
    """Task counts of Algorithm 1 on N x N tiles."""
    return {
        "POTRF": N,
        "TRSM": N * (N - 1) // 2,
        "SYRK": N * (N - 1) // 2,
        "GEMM": N * (N - 1) * (N - 2) // 6,
    }


def expected_trtri_counts(N: int) -> dict[str, int]:
    """Task counts of the tiled TRTRI on N x N tiles."""
    return {
        "TRTRI": N,
        "TRSM_RINV": N * (N - 1) // 2,
        "TRSM_LINV": N * (N - 1) // 2,
        "GEMM_INV": N * (N - 1) * (N - 2) // 6,
    }


def expected_lauum_counts(N: int) -> dict[str, int]:
    """Task counts of the tiled LAUUM on N x N tiles."""
    return {
        "LAUUM": N,
        "SYRK_T": N * (N - 1) // 2,
        "TRMM": N * (N - 1) // 2,
        "GEMM_T": N * (N - 1) * (N - 2) // 6,
    }


@dataclass(frozen=True)
class GraphStats:
    """Aggregate description of a task graph."""

    num_tasks: int
    num_edges: int
    total_flops: float
    kinds: dict[str, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f"{k}:{v}" for k, v in sorted(self.kinds.items()))
        return (
            f"{self.num_tasks} tasks, {self.num_edges} edges, "
            f"{self.total_flops / 1e9:.2f} Gflop [{kinds}]"
        )


def graph_stats(graph: TaskGraph) -> GraphStats:
    return GraphStats(
        num_tasks=len(graph.tasks),
        num_edges=sum(1 for _ in graph.dependency_edges()),
        total_flops=graph.total_flops(),
        kinds=kind_counts(graph),
    )
