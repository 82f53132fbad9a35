"""A simulated run's timeline as logs, the trace rebuilt from it, and
what the trace says about the run.

The array engine's event loop (``repro.runtime.simulator.fast_engine``)
hands every run two logs (:func:`new_log`) and appends to them as it
goes:

* the *run log*, in the order the loop meets them: each task start as
  the completion event the start pushes, ``(end, seq, start, task)`` —
  the start and end times the loop computed and the number the start
  took in its event counter — and each ready-queue entry as ``(time,
  task)``;
* the *delivery log*: each delivered message's
  :class:`~repro.runtime.simulator.network.Transfer`, in delivery order
  (a lost message is not delivered; its retransmission is a message of
  its own).

A traced run keeps both; a run nobody traces gets logs of length zero
(``deque(maxlen=0)``), so the loop runs the same statements and keeps
nothing.  :func:`rebuild` turns kept logs into the rows a recorder
takes, after the loop:

* a task's ``ready`` is when it entered its node's ready queue, or, if
  a free worker took it at once, its start;
* task rows come in start order, transfer rows in delivery order;
* ``queue.depth.max`` is each node's peak count of tasks that entered its
  ready queue and were not yet taken out, replayed in run-log order.

The rows equal, field for field and in order, what recording each event
where it happened produced (``tests/test_compiled_engine.py`` holds the
object engine's trace against them).

The analysis reads a traced report of either engine against the graph's
columns, and placement from the trace: a policy may move tasks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter, not_
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from ..graph.compiled import CompiledGraph, compile_graph
from ..graph.task import TaskGraph

if TYPE_CHECKING:
    from ..runtime.simulator.harness import SimReport
    from .events import TaskEvent, TransferEvent

__all__ = ["CriticalPathBreakdown", "critical_path_breakdown", "data_ids",
           "iteration_profile", "new_log", "rebuild", "utilization_timeline"]


#: a delivered message's transfer row, its head tile by id
_MESSAGE_ROW = attrgetter("key", "src", "dst", "nbytes", "submitted", "started", "end")
_EPS = 1e-12  # slack for comparing a trace's times


def new_log(kept: bool) -> deque:
    """A log one run appends to: kept whole, or kept not at all."""
    return deque(maxlen=None if kept else 0)


class Rebuilt(NamedTuple):
    """What a recorder takes from one run."""

    #: ``(task_id, kind, node, ready, start, end, flops)`` in start order
    tasks: list[tuple]
    #: ``(key, src, dst, nbytes, submitted, started, delivered)`` in
    #: delivery order
    transfers: list[tuple]
    #: node -> peak ready-queue depth, for nodes whose queue was used
    queue_peaks: dict[int, int]


def rebuild(cg, run_log: deque, deliveries: deque) -> Rebuilt:
    """The trace of a run of ``cg`` from its logs."""
    is_start = [len(x) == 4 for x in run_log]
    starts = list(compress(run_log, is_start))
    entries = list(compress(run_log, map(not_, is_start)))
    task_t = list(map(itemgetter(3), starts))
    start_t = list(map(itemgetter(2), starts))
    end_t = list(map(itemgetter(0), starts))
    order = np.fromiter(task_t, np.int64, len(starts))
    # ready: a task that waited was ready when it entered the queue, one
    # a free worker took at once when it started
    ready = np.zeros(cg.n_tasks)
    ready[order] = start_t
    entered = np.fromiter(map(itemgetter(1), entries), np.int64, len(entries))
    ready[entered] = list(map(itemgetter(0), entries))

    kinds = np.array(cg.kind_names, dtype=object)[cg.kind_codes[order]]
    tasks = list(zip(task_t, kinds.tolist(), cg.node[order].tolist(),
                     ready[order].tolist(), start_t, end_t,
                     cg.flops[order].tolist()))
    if cg.data_keys is None:
        transfers = list(map(_MESSAGE_ROW, deliveries))
    else:  # the head tile's name instead of its id
        transfers = [(cg.data_keys[row[0]],) + row[1:]
                     for row in map(_MESSAGE_ROW, deliveries)]
    return Rebuilt(tasks, transfers, _queue_peaks(cg.node, is_start, entered, order))


def _queue_peaks(node: np.ndarray, is_start: list[bool], entered: np.ndarray,
                 started: np.ndarray) -> dict[int, int]:
    """Per-node peak ready-queue depth, replayed in run-log order.

    ``is_start`` tells the log's starts from its queue entries; the
    ``entered`` and ``started`` tasks are in log order.  A start of a task
    that had entered is its exit; a task that never left (its node
    crashed) stays.
    """
    if not entered.size:
        return {}
    is_start = np.fromiter(is_start, bool, len(is_start))
    waited = np.zeros(len(node), bool)
    waited[entered] = True
    left = waited[started]
    where = np.concatenate((node[entered], node[started[left]]))
    when = np.concatenate((np.flatnonzero(~is_start),
                           np.flatnonzero(is_start)[left]))
    step = np.concatenate((np.ones(len(entered), np.int64),
                           np.full(int(left.sum()), -1, np.int64)))
    order = np.lexsort((when, where))
    where, depth = where[order], np.cumsum(step[order])
    first = np.flatnonzero(np.diff(where, prepend=-1))
    before = np.where(first > 0, depth[first - 1], 0)
    peaks = np.maximum.reduceat(depth, first) - before
    return dict(zip(where[first].tolist(), peaks.tolist()))


def data_ids(cg: CompiledGraph, name: str = "trace") -> Callable[[object], int]:
    """The data id a trace's key (a ``DataKey`` or an id) names in ``cg``;
    a key ``cg`` does not declare raises :class:`ValueError`."""
    ids: dict[object, int] = {k: i for i, k in enumerate(cg.data_keys or ())}

    def data_id(key: object) -> int:
        d = int(key) if isinstance(key, (int, np.integer)) else ids.get(key, -1)
        if not 0 <= d < cg.n_data:
            raise ValueError(f"{name}: the trace moves {key!r}, which the graph does "
                             "not declare: it is a trace of another graph")
        return d

    return data_id


@dataclass
class CriticalPathBreakdown:
    """Where the makespan went, along the realized critical path: a hop
    queues from when its tile was at the sender (a lost attempt and its
    timeout included) to its first quantum, then is on the wire."""

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


def _traced(report: SimReport) -> list[TaskEvent]:
    if report.trace is None:
        raise ValueError("simulate(..., trace=True) is required for analysis")
    return report.trace


def critical_path_breakdown(graph: CompiledGraph | TaskGraph,
                            report: SimReport) -> CriticalPathBreakdown:
    """Walk back from the last task to end through whatever bound each
    start: the task that freed its worker, the end that released its
    iteration barrier, or its last input along every hop from its producer.
    ``compute + xfer_queue + xfer_wire`` is the makespan of a run without
    aggregation; ``worker_wait`` overlaps the freeing task's compute."""
    cg = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    events = _traced(report)
    data_id = data_ids(cg)
    traces = {e.task_id: e for e in events}
    deliveries = {(data_id(t.key), t.dst): t for t in report.transfers or ()}
    # the first task to end at a time, on each node and on any (-1)
    end_at = {(n, round(e.end, 12)): e.task_id
              for e in reversed(events) for n in (e.node, -1)}

    def available(d: int, node: int) -> tuple[float, Optional[TransferEvent]]:
        """When version ``d`` was on ``node``, and the hop that brought it."""
        tr = deliveries.get((d, node))
        if tr is not None:
            return tr.delivered, tr
        p = int(cg.data_producer[d])
        return (traces[p].end if p >= 0 else 0.0), None

    out = CriticalPathBreakdown(makespan=report.makespan)
    cur = max(events, key=attrgetter("end")).task_id
    while cur >= 0 and out.hops <= cg.n_tasks:
        e = traces[cur]
        out.path.append(cur)
        out.hops += 1
        kind = cg.kind_names[cg.kind_codes[cur]]
        out.kinds[kind] = out.kinds.get(kind, 0) + 1
        out.compute += e.end - e.start
        if e.start > e.ready + _EPS:  # worker-bound
            out.worker_wait += e.start - e.ready
            cur = end_at.get((e.node, round(e.start, 12)), -1)
            continue
        best, best_time, best_tr = -1, -1.0, None
        for d in cg.read_ids[cg.read_ptr[cur]:cg.read_ptr[cur + 1]].tolist():
            arrival, tr = available(d, e.node)
            if arrival > best_time:
                best, best_time, best_tr = d, arrival, tr
        held = end_at.get((-1, round(e.start, 12)))
        if held is not None and e.start > max(best_time, 0.0) + _EPS:
            cur = held  # a barrier held it: on through the end that released it
            continue
        if best_time <= _EPS:
            break  # reached a source task
        while best_tr is not None:
            sent, prev = available(best, best_tr.src)
            out.xfer_queue += best_tr.started - sent
            out.xfer_wire += best_tr.delivered - best_tr.started
            best_tr = prev
        cur = int(cg.data_producer[best])
    return out


def iteration_profile(graph: CompiledGraph | TaskGraph,
                      report: SimReport) -> list[tuple[int, float]]:
    """(iteration, last task end) pairs: the gaps expose stalled panels."""
    cg = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    ends: dict[int, float] = {}
    for e in _traced(report):
        it = int(cg.iteration[e.task_id])
        ends[it] = max(ends.get(it, 0.0), e.end)
    return sorted(ends.items())


def utilization_timeline(report: SimReport, buckets: int = 50) -> list[tuple[float, float]]:
    """Worker utilization as (bucket start, busy fraction) pairs: the
    ramp-up, the plateau, and the endgame the shrinking trailing matrix
    starves."""
    events = _traced(report)
    if buckets < 1:
        raise ValueError(f"need at least one bucket, got {buckets}")
    if report.makespan <= 0:
        return []
    width = report.makespan / buckets
    busy = [0.0] * buckets
    for t in events:
        for bkt in range(min(int(t.start / width), buckets - 1),
                         min(int(t.end / width), buckets - 1) + 1):
            busy[bkt] += max(0.0, min(t.end, (bkt + 1) * width) - max(t.start, bkt * width))
    workers = len(report.busy_time) * report.cores_per_node
    return [(i * width, busy[i] / (width * workers)) for i in range(buckets)]
