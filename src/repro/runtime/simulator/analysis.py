"""Post-mortem analysis of traced simulations.

Given a traced :class:`SimReport` (``simulate(..., trace=True)``), this
module reconstructs the *realized* critical path — the chain of tasks,
transfers, and waits that actually determined the makespan — and
classifies where the time went:

* ``compute``     — kernels executing on the critical chain;
* ``xfer_queue``  — critical messages waiting for their source's egress port;
* ``xfer_wire``   — critical messages in flight;
* ``worker_wait`` — critical tasks ready but waiting for a free worker
  (informational: this interval overlaps the compute of the task that
  eventually freed the worker, so ``compute + xfer_queue + xfer_wire``
  alone reconstructs the makespan).

This is the instrument that exposed the network-model findings recorded in
DESIGN.md §5 (e.g. that SBC's spine tile owner carries two consecutive
panels' broadcasts), and it is generally useful to answer "why is this
schedule slow?" for any distribution/graph combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...graph.task import DataKey, TaskGraph
from .harness import SimReport

__all__ = [
    "CriticalPathBreakdown",
    "critical_path_breakdown",
    "iteration_profile",
    "utilization_timeline",
]

_EPS = 1e-12


@dataclass
class CriticalPathBreakdown:
    """Where the makespan went, along the realized critical path."""

    makespan: float
    compute: float = 0.0
    xfer_queue: float = 0.0
    xfer_wire: float = 0.0
    worker_wait: float = 0.0
    hops: int = 0
    #: number of critical-path tasks per kernel kind
    kinds: dict[str, int] = field(default_factory=dict)
    #: task ids along the path, sink first
    path: list[int] = field(default_factory=list)

    @property
    def communication_fraction(self) -> float:
        """Share of the critical path spent on communication."""
        if self.makespan <= 0:
            return 0.0
        return (self.xfer_queue + self.xfer_wire) / self.makespan

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"makespan {self.makespan * 1e3:.1f}ms = compute {self.compute * 1e3:.1f}"
            f" + queue {self.xfer_queue * 1e3:.1f} + wire {self.xfer_wire * 1e3:.1f}"
            f" + worker {self.worker_wait * 1e3:.1f} (ms, {self.hops} hops)"
        )


def critical_path_breakdown(
    graph: TaskGraph, report: SimReport
) -> CriticalPathBreakdown:
    """Walk back from the last-finishing task, following whichever
    dependency (input arrival or worker availability) bound each start."""
    if report.trace is None or report.transfers is None:
        raise ValueError("simulate(..., trace=True) is required for analysis")
    traces = {t.task_id: t for t in report.trace}
    deliveries: dict[tuple[DataKey, int], object] = {
        (t.key, t.dst): t for t in report.transfers
    }
    # Map (node, end-time) -> task, to attribute worker waits.
    end_at_node: dict[tuple[int, float], int] = {}
    for t in report.trace:
        end_at_node.setdefault((graph.tasks[t.task_id].node, round(t.end, 12)), t.task_id)

    out = CriticalPathBreakdown(makespan=report.makespan)
    cur: Optional[int] = max(report.trace, key=lambda t: t.end).task_id
    guard = 0
    while cur is not None and guard <= len(graph.tasks):
        guard += 1
        e = traces[cur]
        task = graph.tasks[cur]
        out.path.append(cur)
        out.hops += 1
        out.kinds[task.kind] = out.kinds.get(task.kind, 0) + 1
        out.compute += e.end - e.start
        if e.start > e.ready + _EPS:
            # Worker-bound: continue through the task that freed the worker.
            out.worker_wait += e.start - e.ready
            cur = end_at_node.get((task.node, round(e.start, 12)))
            continue
        # Input-bound: find the binding input.
        best_key, best_time, best_tr = None, -1.0, None
        for key in task.reads:
            tr = deliveries.get((key, task.node))
            if tr is not None:
                arrival = tr.delivered
            else:
                pid = graph.producer.get(key)
                arrival = traces[pid].end if pid is not None else 0.0
            if arrival > best_time:
                best_key, best_time, best_tr = key, arrival, tr
        if best_key is None or best_time <= _EPS:
            break  # reached a source task
        if best_tr is not None:
            out.xfer_queue += best_tr.queue_wait
            out.xfer_wire += best_tr.delivered - best_tr.started
        cur = graph.producer.get(best_key)
    return out


def iteration_profile(graph: TaskGraph, report: SimReport) -> list[tuple[int, float]]:
    """Completion time of each iteration (the per-panel rhythm).

    Returns (iteration, last task end) pairs in iteration order — the gaps
    expose which panels stall the pipeline.
    """
    if report.trace is None:
        raise ValueError("simulate(..., trace=True) is required for analysis")
    ends: dict[int, float] = {}
    for t in report.trace:
        it = graph.tasks[t.task_id].iteration
        ends[it] = max(ends.get(it, 0.0), t.end)
    return sorted(ends.items())


def utilization_timeline(
    report: SimReport, buckets: int = 50
) -> list[tuple[float, float]]:
    """Worker utilization over time, as (bucket start, busy fraction) pairs.

    Shows the paper's pipeline phases: the ramp-up while the first panels
    unlock parallelism, the near-full plateau, and the endgame where the
    shrinking trailing matrix starves the workers — the regime where the
    distribution's communication pattern decides the makespan.
    """
    if report.trace is None:
        raise ValueError("simulate(..., trace=True) is required for analysis")
    if buckets < 1:
        raise ValueError(f"need at least one bucket, got {buckets}")
    span = report.makespan
    if span <= 0:
        return []
    width = span / buckets
    busy = [0.0] * buckets
    for t in report.trace:
        first = min(int(t.start / width), buckets - 1)
        last = min(int(t.end / width), buckets - 1)
        for bkt in range(first, last + 1):
            lo = max(t.start, bkt * width)
            hi = min(t.end, (bkt + 1) * width)
            if hi > lo:
                busy[bkt] += hi - lo
    workers = len(report.busy_time) * report.cores_per_node
    return [(i * width, busy[i] / (width * workers)) for i in range(buckets)]
