"""Distributed owner-computes execution over real OS processes.

One process per node, point-to-point message passing through per-node
queues: a faithful (laptop-scale) analogue of the paper's MPI + StarPU
deployment.  Each process materializes its own initial tiles from the
shared seed (no input distribution traffic, as in the paper's harness),
executes its tasks in the global submission order, eagerly sends every
produced version to the nodes that will read it, and counts the bytes it
put on the wire.

The measured traffic is exactly the volume predicted by
:func:`repro.comm.count_communications` — the reproduction's "measured
communication volume" (Figure 8) can thus be obtained either way.

Delivery is acknowledged: every data message carries a unique id, the
receiver acks it back to the sender, and the sender retransmits after an
exponential-backoff timeout (:class:`repro.runtime.faults.RetryPolicy`)
until acked or out of retries.  Retransmissions are counted separately
(``DistributedReport.retransmits``) so the first-transmission byte count
still equals the analytic prediction.  The driver polls worker liveness:
a process that dies without reporting raises a diagnostic
:class:`DeadWorkerError` naming the node, its exit code, its progress and
the final tiles it still owed — instead of wedging until the timeout —
and the deadline itself raises :class:`ExecutionTimeout` naming the
laggards.  Events gathered before a failure are salvaged into the
recorder.  A :class:`repro.runtime.faults.FaultPlan` injects stragglers
(scaled post-kernel sleeps), sender-side message loss (exercising the
retry path) and hard worker crashes (``os._exit`` at a chosen task
index); see ``docs/network-model.md`` ("Fault model").
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_lib
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...graph.task import DataKey, TaskGraph
from ...obs import Recorder
from ..execution import KERNEL_DISPATCH, InitialDataSpec
from ..faults import FaultPlan, RetryPolicy
from ..local import final_versions

__all__ = [
    "DistributedReport",
    "DeadWorkerError",
    "ExecutionTimeout",
    "execute_distributed",
]

#: Wire format of one task: (task id, kind, reads, write, flops)
_WireTask = tuple[int, str, tuple[DataKey, ...], Optional[DataKey], float]

#: Exit code used by injected worker crashes (``FaultPlan.crashes``).
CRASH_EXIT_CODE = 17


class DeadWorkerError(RuntimeError):
    """A worker process died without reporting a result."""


class ExecutionTimeout(RuntimeError):
    """The distributed run exceeded its deadline."""


class _Aborted(Exception):
    """The driver told this worker to stop (another node failed)."""


@dataclass
class DistributedReport:
    """Gathered results of a distributed run."""

    store: dict[DataKey, np.ndarray]
    sent_bytes: dict[int, int]
    sent_messages: dict[int, int]
    num_nodes: int = 0
    #: the recorder that collected per-task / per-send events (None on
    #: un-traced runs); see :mod:`repro.obs`.
    obs: Optional[Recorder] = None
    #: per-node count of retransmitted messages (ack timeout fired);
    #: zero everywhere on a healthy run.  Retransmitted traffic is NOT
    #: included in ``sent_bytes``/``sent_messages``, which count logical
    #: (first-transmission) traffic only.
    retransmits: dict[int, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(self.sent_bytes.values())

    @property
    def total_messages(self) -> int:
        return sum(self.sent_messages.values())

    @property
    def total_retransmits(self) -> int:
        return sum(self.retransmits.values())


def _worker(
    node: int,
    tasks: list[_WireTask],
    initial: list[tuple[DataKey, str]],
    sends: dict[DataKey, list[int]],
    local_refs: dict[DataKey, int],
    finals: list[DataKey],
    spec: InitialDataSpec,
    inbox,
    outboxes,
    result_q,
    trace_base: Optional[float] = None,
    progress=None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
) -> None:
    # Events live outside the try so the error path can salvage whatever
    # was gathered before the exception; times are CLOCK_MONOTONIC seconds
    # relative to the driver's base (system-wide on Linux, so per-node
    # timelines align).
    events: Optional[list] = [] if trace_base is not None else None
    retransmits = 0
    try:
        store: dict[DataKey, np.ndarray] = {}
        refs = dict(local_refs)
        finals_set = set(finals)
        sent_bytes = 0
        sent_messages = 0
        num_nodes = len(outboxes)
        if retry is None:
            retry = RetryPolicy()
        loss = faults.loss_state() if faults is not None else None
        crash_point = faults.crash_after(node) if faults is not None else None
        slow = faults is not None and bool(faults.slowdowns)
        base = trace_base if trace_base is not None else time.monotonic()

        # In-flight sends awaiting an ack: msg id -> [dst, key, arr,
        # attempt, retransmit deadline, first send time].  Ids are strided
        # by the node count so they are globally unique without
        # coordination.
        pending: dict[int, list] = {}
        next_msg = node
        seen_msgs = set()  # retransmitted duplicates are acked, not re-stored

        def transmit(msg_id: int, dst: int, key: DataKey, arr, attempt: int,
                     sent: float) -> None:
            if loss is not None and loss.lost(node, dst):
                # Injected sender-side loss: the message evaporates; the
                # ack timeout below retransmits it.
                if events is not None:
                    events.append(("fault", "loss", node, dst, key,
                                   time.monotonic() - base, ""))
            else:
                outboxes[dst].put(("data", msg_id, node, key, arr, sent))
            pending[msg_id] = [dst, key, arr, attempt,
                               time.monotonic() + retry.delay(attempt), sent]

        def publish(key: DataKey, arr: np.ndarray) -> None:
            nonlocal sent_bytes, sent_messages, next_msg
            store[key] = arr
            for dst in sends.get(key, ()):
                msg_id = next_msg
                next_msg += num_nodes
                sent_bytes += arr.nbytes
                sent_messages += 1
                transmit(msg_id, dst, key, arr, 0, time.monotonic() - base)

        def handle(msg) -> None:
            tag = msg[0]
            if tag == "data":
                _tag, msg_id, src, key, arr, sent = msg
                outboxes[src].put(("ack", msg_id))
                if msg_id not in seen_msgs:
                    seen_msgs.add(msg_id)
                    store[key] = arr
                    if events is not None:
                        events.append(("xfer", key, src, node, arr.nbytes,
                                       sent, time.monotonic() - base))
            elif tag == "ack":
                pending.pop(msg[1], None)
            elif tag == "stop":
                raise _Aborted()

        def retransmit_due() -> None:
            nonlocal retransmits
            t = time.monotonic()
            for msg_id, (dst, key, arr, attempt, deadline, sent) in list(
                    pending.items()):
                if t >= deadline:
                    attempt += 1
                    if attempt > retry.max_retries:
                        raise RuntimeError(
                            f"node {node}: no ack from node {dst} for {key} "
                            f"after {retry.max_retries} retries"
                        )
                    retransmits += 1
                    if events is not None:
                        events.append(("fault", "retry", node, dst, key,
                                       time.monotonic() - base,
                                       f"attempt {attempt}"))
                    del pending[msg_id]
                    transmit(msg_id, dst, key, arr, attempt, sent)

        def pump(block: bool) -> bool:
            """Handle one inbound message; retransmit overdue sends."""
            while True:
                retransmit_due()
                if not block:
                    try:
                        handle(inbox.get_nowait())
                        return True
                    except queue_lib.Empty:
                        return False
                wait = None
                if pending:
                    wait = max(0.01, min(e[4] for e in pending.values())
                               - time.monotonic())
                try:
                    handle(inbox.get(timeout=wait))
                    return True
                except queue_lib.Empty:
                    continue  # a retransmit deadline passed; loop

        def consume(key: DataKey) -> np.ndarray:
            while key not in store:
                pump(block=True)
            return store[key]

        for key, descriptor in initial:
            publish(key, spec.materialize(key, descriptor))

        completed = 0
        for tid, kind, reads, write, flops in tasks:
            while pump(block=False):  # drain acks between tasks
                pass
            inputs = [consume(k) for k in reads]
            start = time.monotonic() - base
            out = KERNEL_DISPATCH[kind](*inputs)
            if slow:
                # Straggler emulation: stretch the kernel to the plan's
                # factor by sleeping the extra time.
                factor = faults.compute_factor(node, time.monotonic() - base)
                if factor > 1.0:
                    time.sleep((time.monotonic() - base - start) * (factor - 1.0))
            if events is not None:
                events.append(("task", tid, kind, start,
                               time.monotonic() - base, flops))
            if write is not None:
                publish(write, out)
            for k in reads:
                refs[k] -= 1
                if refs[k] == 0 and k not in finals_set:
                    store.pop(k, None)
            completed += 1
            if progress is not None:
                progress[node] = completed
            if crash_point is not None and completed >= crash_point:
                # Injected fail-stop: flush messages already on the wire,
                # then die without reporting (the driver's liveness check
                # must diagnose it).
                for q in outboxes:
                    q.close()
                for q in outboxes:
                    q.join_thread()
                os._exit(CRASH_EXIT_CODE)

        while pending:  # every send must be acked before we report
            pump(block=True)

        result = {k: store[k] for k in finals_set}
        result_q.put(("ok", node, sent_bytes, sent_messages, result, events,
                      retransmits))
    except _Aborted:
        pass  # the driver already knows the run is over
    except Exception:  # pragma: no cover - surfaced by the driver
        result_q.put(("error", node, traceback.format_exc(), 0, None, events,
                      retransmits))


def _event_time(item) -> float:
    e = item[1]
    if e[0] == "task":
        return e[4]  # completion time
    if e[0] == "xfer":
        return e[6]  # receipt time
    return e[5]


def _merge_events(rec: Recorder, all_events: list) -> None:
    """Replay worker event tuples into the recorder in time order."""
    for node, e in sorted(all_events, key=_event_time):
        if e[0] == "task":
            _tag, tid, kind, start, end, flops = e
            rec.record_task(tid, kind, node, start, start, end, flops)
        elif e[0] == "xfer":
            _tag, key, src, dst, nbytes, sent, delivered = e
            rec.record_transfer(key, src, dst, nbytes, sent, sent, delivered)
        else:
            _tag, op, src, dst, key, t, detail = e
            rec.record_fault(op, time=t, src=src, dst=dst, key=key,
                             detail=detail)


def execute_distributed(
    graph: TaskGraph,
    spec: InitialDataSpec,
    timeout: float = 300.0,
    recorder: Optional[Recorder] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    poll_interval: float = 0.25,
) -> DistributedReport:
    """Run ``graph`` across one OS process per node; gather final tiles.

    Pass a :class:`repro.obs.Recorder` to collect wall-clock task events
    and per-message transfer events from every worker process (merged
    into the recorder when the run completes — or whatever was gathered
    before a failure).  A transfer is recorded by its receiver at first
    receipt: ``submitted == started`` is the sender's first send time and
    ``delivered`` the receipt time, so a message lost and retransmitted
    is delivered late, not at its send.

    ``faults`` injects a :class:`repro.runtime.faults.FaultPlan`:
    slowdown windows stretch kernels with post-kernel sleeps, ``loss_rate``
    drops sends before they reach the destination queue (the ack timeout
    retransmits them), and crashes hard-kill a worker after its chosen
    task — the driver then raises :class:`DeadWorkerError` naming the
    node.  ``retry`` tunes the ack timeout/backoff.  A run that exceeds
    ``timeout`` raises :class:`ExecutionTimeout` naming each node that
    had not reported and its task progress.
    """
    num_nodes = graph.nodes_used()
    for key, (home, _d) in graph.initial.items():
        num_nodes = max(num_nodes, home + 1)
    rec = recorder if (recorder is not None and recorder.enabled) else None
    if rec is not None and not rec.source:
        rec.source = "distributed"

    # Per-node plans.
    node_tasks: list[list[_WireTask]] = [[] for _ in range(num_nodes)]
    sends: list[dict[DataKey, list[int]]] = [dict() for _ in range(num_nodes)]
    local_refs: list[dict[DataKey, int]] = [dict() for _ in range(num_nodes)]
    for t in graph.tasks:
        node_tasks[t.node].append((t.id, t.kind, t.reads, t.write, t.flops))
        for k in t.reads:
            src = graph.source_of(k)
            refs = local_refs[t.node]
            refs[k] = refs.get(k, 0) + 1
            if src != t.node:
                dsts = sends[src].setdefault(k, [])
                if t.node not in dsts:
                    dsts.append(t.node)
    initial: list[list[tuple[DataKey, str]]] = [[] for _ in range(num_nodes)]
    for key, (home, descriptor) in graph.initial.items():
        initial[home].append((key, descriptor))
    finals: list[list[DataKey]] = [[] for _ in range(num_nodes)]
    for key in final_versions(graph).values():
        finals[graph.source_of(key)].append(key)

    ctx = mp.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(num_nodes)]
    result_q = ctx.Queue()
    # Per-node completed-task counters, readable by the driver for crash /
    # timeout diagnostics (single writer per slot, so no lock needed).
    progress = ctx.Array("l", num_nodes, lock=False)
    trace_base = time.monotonic() if rec is not None else None
    procs = []
    for node in range(num_nodes):
        p = ctx.Process(
            target=_worker,
            args=(
                node,
                node_tasks[node],
                initial[node],
                sends[node],
                local_refs[node],
                finals[node],
                spec,
                inboxes[node],
                inboxes,
                result_q,
                trace_base,
                progress,
                faults,
                retry,
            ),
        )
        p.daemon = True
        p.start()
        procs.append(p)

    store: dict[DataKey, np.ndarray] = {}
    sent_bytes: dict[int, int] = {}
    sent_messages: dict[int, int] = {}
    retransmits: dict[int, int] = {}
    all_events: list = []
    reported = set()
    error: Optional[str] = None
    failure: Optional[Exception] = None
    deadline = time.monotonic() + timeout

    def take(msg) -> None:
        status, node, a, b, result, events, rtx = msg
        nonlocal error
        reported.add(node)
        if events:
            all_events.extend((node, e) for e in events)
        if status == "error":
            if error is None:
                error = f"node {node} failed:\n{a}"
            return
        sent_bytes[node] = a
        sent_messages[node] = b
        retransmits[node] = rtx
        store.update(result)

    try:
        while len(reported) < num_nodes and error is None:
            try:
                take(result_q.get(timeout=poll_interval))
                continue
            except queue_lib.Empty:
                pass
            # Liveness: a worker that died without reporting will never
            # send a result — fail loudly instead of idling to the
            # deadline.  Grace-drain first: its result may be in flight.
            dead = [n for n, p in enumerate(procs)
                    if n not in reported and not p.is_alive()]
            if dead:
                grace = time.monotonic() + 1.0
                while time.monotonic() < grace and any(
                    n not in reported for n in dead
                ):
                    try:
                        take(result_q.get(timeout=0.1))
                    except queue_lib.Empty:
                        pass
                dead = [n for n in dead if n not in reported]
            if dead and error is None:
                n0 = dead[0]
                if rec is not None:
                    rec.record_fault(
                        "crash", time=time.monotonic() - trace_base, node=n0,
                        detail=f"exitcode {procs[n0].exitcode}")
                owed = finals[n0]
                owed_s = ", ".join(str(k) for k in owed[:6])
                if len(owed) > 6:
                    owed_s += f", ... ({len(owed)} total)"
                failure = DeadWorkerError(
                    f"worker for node {n0} died (exit code "
                    f"{procs[n0].exitcode}) after completing "
                    f"{progress[n0]}/{len(node_tasks[n0])} tasks; "
                    f"still owed final tiles: {owed_s or 'none'}"
                )
                break
            if time.monotonic() > deadline:
                missing = [n for n in range(num_nodes) if n not in reported]
                detail = ", ".join(
                    f"node {n}: {progress[n]}/{len(node_tasks[n])} tasks done"
                    for n in missing
                )
                if rec is not None:
                    rec.record_fault(
                        "timeout", time=time.monotonic() - trace_base,
                        detail=detail)
                failure = ExecutionTimeout(
                    f"distributed run exceeded {timeout:.1f}s; "
                    f"{len(missing)} node(s) never reported ({detail})"
                )
                break
    finally:
        # Tell surviving workers the run is over (they may be blocked on
        # their inbox), then reap.
        for box in inboxes:
            try:
                box.put(("stop",))
            except Exception:
                pass
        # On a failure the stragglers are by definition wedged or dead —
        # don't spend the full grace period waiting for each of them.
        join_timeout = 5.0 if (error is None and failure is None) else 1.0
        for p in procs:
            p.join(timeout=join_timeout)
            if p.is_alive():
                p.terminate()
    if rec is not None:
        # Partial-trace salvage: merge whatever the workers shipped, even
        # when the run failed — the healthy prefix is the diagnostic.
        _merge_events(rec, all_events)
    if failure is not None:
        raise failure
    if error is not None:
        raise RuntimeError(error)
    return DistributedReport(
        store=store,
        sent_bytes=sent_bytes,
        sent_messages=sent_messages,
        num_nodes=num_nodes,
        obs=rec,
        retransmits=retransmits,
    )
