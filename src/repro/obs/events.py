"""Structured event-trace core shared by every runtime.

Five typed events cover the execution paths of the library:

* :class:`TaskEvent` — one kernel invocation (simulator, local executor,
  distributed worker);
* :class:`TransferEvent` — one wire message between nodes (simulator's
  network model, distributed executor's queue sends);
* :class:`IOEvent` — one slow-memory load/store of the out-of-core
  engine;
* :class:`CacheEvent` — one fast-memory cache decision (hit / miss /
  create / eviction writeback);
* :class:`FaultEvent` — one injected or observed fault (straggler window,
  link degradation, message loss, retransmission, worker crash, ack or
  gather timeout); see :mod:`repro.runtime.faults`.

Each is a :class:`typing.NamedTuple`: immutable, hashable, built from a
row of its fields at tuple speed (a traced simulation records tens of
thousands at once); ``e._replace(field=...)`` derives a changed copy.

All times are seconds on the recorder's time axis: simulated time for
the simulator, wall-clock seconds since the run started for the real
runtimes.  A :class:`Recorder` collects events *and* feeds the
derived metrics (:mod:`repro.obs.metrics`) as they arrive, so
``recorder.metrics`` is consistent with the event lists at any point.

The disabled path is :class:`NullRecorder` (singleton
:data:`NULL_RECORDER`): ``enabled`` is False and every ``record_*``
method is a no-op, so instrumented code can either branch on
``recorder.enabled`` (hot loops) or call unconditionally (cold paths).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, partial
from typing import NamedTuple, Optional

from .metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "TaskEvent",
    "TransferEvent",
    "IOEvent",
    "CacheEvent",
    "FaultEvent",
    "FAULT_OPS",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
]


class TaskEvent(NamedTuple):
    """Timing of one executed task."""

    task_id: int
    kind: str
    node: int
    ready: float  # all inputs present at the node
    start: float  # worker began executing
    end: float    # kernel finished
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def wait(self) -> float:
        """Ready-to-start delay (worker contention / barrier holds)."""
        return self.start - self.ready


class TransferEvent(NamedTuple):
    """Timing of one delivered wire message."""

    key: object  # DataKey transferred (head key when aggregated)
    src: int
    dst: int
    nbytes: int
    submitted: float  # producer finished / transfer requested
    started: float  # first quantum pushed through the egress port
    delivered: float  # last quantum landed at the destination

    @property
    def queue_wait(self) -> float:
        """Time spent waiting for the source's egress port."""
        return self.started - self.submitted

    @property
    def wire(self) -> float:
        """Time in flight (first push to last landing)."""
        return self.delivered - self.started

    @property
    def total(self) -> float:
        """Submission-to-delivery latency."""
        return self.delivered - self.submitted


class IOEvent(NamedTuple):
    """One slow-memory transfer of an out-of-core execution."""

    op: str  # "load" | "store"
    key: object
    nbytes: int
    time: float


class CacheEvent(NamedTuple):
    """One fast-memory cache decision."""

    op: str  # "hit" | "miss" | "create" | "evict"
    key: object
    nbytes: int
    time: float
    dirty: bool = False  # for "evict": whether a writeback was paid


#: Fault-event operations; see :class:`FaultEvent`.
FAULT_OPS = ("slowdown", "degraded", "loss", "retry", "crash", "timeout")


class FaultEvent(NamedTuple):
    """One injected or observed fault (see :mod:`repro.runtime.faults`).

    ``op`` is one of :data:`FAULT_OPS`:

    * ``"slowdown"`` — a straggler window opened on ``node``;
    * ``"degraded"`` — a link-degradation window opened on (src, dst);
    * ``"loss"`` — a message on (src, dst) was dropped in flight;
    * ``"retry"`` — a lost/unacked message was retransmitted;
    * ``"crash"`` — ``node`` fail-stopped;
    * ``"timeout"`` — a wait (ack or result gather) expired.

    Fields that do not apply to an op are -1 / None.
    """

    op: str
    time: float
    node: int = -1
    src: int = -1
    dst: int = -1
    key: object = None
    detail: str = ""


# An event from a row of its fields without a Python-level call per row
# (a traced simulation records tens of thousands at once).  The bulk
# forms unpack every row for its metrics first, which checks its width.
_task_event = partial(tuple.__new__, TaskEvent)
_transfer_event = partial(tuple.__new__, TransferEvent)


class Recorder:
    """Collects typed events and keeps derived metrics in step.

    ``source`` labels where the trace came from ("simulator", "local",
    "distributed", "ooc", or anything a caller chooses); exporters carry
    it into the output.
    """

    enabled = True

    def __init__(self, source: str = ""):
        self.source = source
        self.task_events: list[TaskEvent] = []
        self.transfer_events: list[TransferEvent] = []
        self.io_events: list[IOEvent] = []
        self.cache_events: list[CacheEvent] = []
        self.fault_events: list[FaultEvent] = []
        self.metrics = MetricsRegistry()

    # The per-event metrics are registered by the first event of their kind
    # (a run without transfers has no ``net.*`` metric) and then reused:
    # three registry lookups by name per event were ~10 % of a traced
    # simulation.

    @cached_property
    def _task_metrics(self) -> tuple[Counter, Counter, Histogram]:
        m = self.metrics
        return (m.counter("tasks", "executed tasks per kernel kind"),
                m.counter("task.seconds", "busy seconds per kernel kind"),
                m.histogram("task.wait.seconds", "ready-to-start delay per task"))

    @cached_property
    def _transfer_metrics(self) -> tuple[Counter, Counter, Histogram]:
        m = self.metrics
        return (m.counter("net.bytes", "bytes on the wire per (src, dst)"),
                m.counter("net.messages", "messages per (src, dst)"),
                m.histogram("net.queue.seconds",
                            "egress-port queueing delay per message"))

    # -- recording ----------------------------------------------------------

    def record_task(
        self,
        task_id: int,
        kind: str,
        node: int,
        ready: float,
        start: float,
        end: float,
        flops: float = 0.0,
    ) -> None:
        self.record_tasks(((task_id, kind, node, ready, start, end, flops),))

    def record_transfer(
        self,
        key: object,
        src: int,
        dst: int,
        nbytes: int,
        submitted: float,
        started: float,
        delivered: float,
    ) -> None:
        self.record_transfers(((key, src, dst, nbytes, submitted, started, delivered),))

    # The bulk forms equal one ``record_*`` per row: events and every metric
    # sum in row order (float sums are order-sensitive).

    def record_tasks(self, rows: Sequence[tuple]) -> None:
        """Record one :class:`TaskEvent` per ``(task_id, kind, node, ready,
        start, end, flops)`` row."""
        if not rows:
            return
        tasks, seconds, wait = self._task_metrics
        count, busy = tasks.values, seconds.values
        for _tid, kind, _node, _ready, start, end, _flops in rows:
            key = (kind,)
            count[key] = count.get(key, 0.0) + 1.0
            dur = end - start
            if dur < 0:
                raise ValueError(f"counter task.seconds cannot decrease (got {dur})")
            busy[key] = busy.get(key, 0.0) + dur
        wait.observe_all(row[4] - row[3] for row in rows)
        self.task_events.extend(map(_task_event, rows))

    def record_transfers(self, rows: Sequence[tuple]) -> None:
        """Record one :class:`TransferEvent` per ``(key, src, dst, nbytes,
        submitted, started, delivered)`` row."""
        if not rows:
            return
        nbytes_c, messages, queued = self._transfer_metrics
        volume, count = nbytes_c.values, messages.values
        for _key, src, dst, nbytes, _submitted, _started, _delivered in rows:
            if nbytes < 0:
                raise ValueError(f"counter net.bytes cannot decrease (got {nbytes})")
            pair = (src, dst)
            volume[pair] = volume.get(pair, 0.0) + nbytes
            count[pair] = count.get(pair, 0.0) + 1.0
        queued.observe_all(row[5] - row[4] for row in rows)
        self.transfer_events.extend(map(_transfer_event, rows))

    def record_io(self, op: str, key: object, nbytes: int, time: float) -> None:
        if op not in ("load", "store"):
            raise ValueError(f"unknown io op {op!r}")
        self.io_events.append(IOEvent(op, key, nbytes, time))
        self.metrics.counter("io.bytes", "slow-memory traffic per op").inc(
            nbytes, labels=(op,)
        )

    def record_cache(
        self, op: str, key: object, nbytes: int, time: float, dirty: bool = False
    ) -> None:
        if op not in ("hit", "miss", "create", "evict"):
            raise ValueError(f"unknown cache op {op!r}")
        self.cache_events.append(CacheEvent(op, key, nbytes, time, dirty))
        self.metrics.counter("cache.ops", "cache decisions per op").inc(labels=(op,))
        if op == "evict" and dirty:
            self.metrics.counter(
                "cache.writeback.bytes", "bytes written back on eviction"
            ).inc(nbytes)

    def record_fault(
        self,
        op: str,
        time: float,
        node: int = -1,
        src: int = -1,
        dst: int = -1,
        key: object = None,
        detail: str = "",
    ) -> None:
        if op not in FAULT_OPS:
            raise ValueError(f"unknown fault op {op!r}")
        self.fault_events.append(FaultEvent(op, time, node, src, dst, key, detail))
        self.metrics.counter("faults", "fault events per op").inc(labels=(op,))

    # -- derived views ------------------------------------------------------

    def finalize_utilization(self, busy_time, makespan: float,
                             cores_per_node: int = 1) -> None:
        """Record per-node busy seconds + utilization gauges from a run."""
        g_busy = self.metrics.gauge("worker.busy.seconds",
                                    "compute seconds per node")
        g_util = self.metrics.gauge("worker.utilization",
                                    "busy fraction per node")
        for node, busy in enumerate(busy_time):
            g_busy.set(busy, labels=(node,))
            if makespan > 0:
                g_util.set(busy / (makespan * cores_per_node), labels=(node,))

    def bytes_by_pair(self) -> dict[tuple[int, int], int]:
        """Wire bytes per (src, dst) pair, from the ``net.bytes`` counter."""
        counter = self.metrics.get("net.bytes")
        if counter is None:
            return {}
        return {k: int(v) for k, v in counter.values.items()}

    def cache_hit_rate(self) -> Optional[float]:
        """Hits / (hits + misses), or None when no cache events exist."""
        ops = self.metrics.get("cache.ops")
        if ops is None:
            return None
        hits = ops.value(("hit",))
        misses = ops.value(("miss",))
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def num_events(self) -> int:
        return (len(self.task_events) + len(self.transfer_events)
                + len(self.io_events) + len(self.cache_events)
                + len(self.fault_events))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Recorder {self.source or 'unlabelled'}: "
                f"{len(self.task_events)} tasks, "
                f"{len(self.transfer_events)} transfers, "
                f"{len(self.io_events)} io, "
                f"{len(self.cache_events)} cache, "
                f"{len(self.fault_events)} faults>")


class NullRecorder(Recorder):
    """Disabled recorder: ``enabled`` is False, recording is a no-op.

    Shares the :class:`Recorder` interface so call sites need no
    branching; hot loops should still skip the call via ``enabled``.
    """

    enabled = False

    def record_tasks(self, rows: Sequence[tuple]) -> None:  # noqa: D102
        pass

    def record_transfers(self, rows: Sequence[tuple]) -> None:  # noqa: D102
        pass

    def record_io(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def record_cache(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def record_fault(self, *args, **kwargs) -> None:  # noqa: D102
        pass

    def finalize_utilization(self, *args, **kwargs) -> None:  # noqa: D102
        pass


#: Shared no-op recorder for un-traced runs.
NULL_RECORDER = NullRecorder()
