"""What both engines do around their event loops, said once.

None of this decides the order of events — that part (dependency
bookkeeping, the broadcast planner, the ready queues, the loops) stays
written per engine because it is what the equality suite checks.  Here
is only what a run needs before its loop and after it: the argument
checks, which recorder it writes to, the state a :class:`FaultPlan`
expands to (and the windows it declares in the trace), the error raised
when the loop drains with tasks left over, and the :class:`SimReport`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from ...config import MachineSpec
from ...obs import Recorder, TaskEvent, TransferEvent
from ..faults import FaultPlan, SimulatedFailure

__all__ = ["FaultState", "SimReport", "check_finished", "check_inputs",
           "fault_state", "finish", "resolve_recorder"]


@dataclass
class SimReport:
    """Outcome of one simulated execution."""

    makespan: float
    total_flops: float
    num_nodes: int
    comm_bytes: int
    comm_messages: int
    busy_time: list[float] = field(default_factory=list)
    time_by_kind: dict[str, float] = field(default_factory=dict)
    num_tasks: int = 0
    cores_per_node: int = 1
    trace: Optional[list[TaskEvent]] = None
    transfers: Optional[list[TransferEvent]] = None
    #: the recorder that collected the trace (None on un-traced runs);
    #: carries the metrics registry and feeds the repro.obs exporters.
    obs: Optional[Recorder] = None

    @property
    def gflops_per_node(self) -> float:
        """The paper's figure of merit: #flops / (t * P) in GFlop/s."""
        return self.total_flops / (self.makespan * self.num_nodes) / 1e9

    @property
    def avg_utilization(self) -> float:
        """Mean fraction of worker-time spent computing."""
        if not self.busy_time or self.makespan <= 0:
            return 0.0
        workers = len(self.busy_time) * self.cores_per_node
        return sum(self.busy_time) / (self.makespan * workers)

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable summary (durations in seconds, traffic in bytes)."""
        return {
            "makespan": self.makespan,
            "gflops_per_node": self.gflops_per_node,
            "total_flops": self.total_flops,
            "num_nodes": self.num_nodes,
            "cores_per_node": self.cores_per_node,
            "comm_bytes": self.comm_bytes,
            "comm_messages": self.comm_messages,
            "avg_utilization": self.avg_utilization,
            "num_tasks": self.num_tasks,
            "time_by_kind": dict(self.time_by_kind),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"makespan {self.makespan:.3f}s, {self.gflops_per_node:.1f} GFlop/s/node, "
            f"{self.comm_bytes / 1e9:.2f} GB in {self.comm_messages} messages, "
            f"utilization {self.avg_utilization:.2f}"
        )


def check_inputs(broadcast: str, n_tasks: int, nodes_used: int,
                 machine: MachineSpec) -> None:
    """Reject arguments no run can start from."""
    if broadcast not in ("direct", "tree"):
        raise ValueError(f"unknown broadcast mode {broadcast!r}")
    if n_tasks == 0:
        raise ValueError("cannot simulate an empty graph")
    if nodes_used > machine.nodes:
        raise ValueError(
            f"graph uses {nodes_used} nodes but machine has {machine.nodes}")


def resolve_recorder(trace: bool,
                     recorder: Optional[Recorder]) -> Optional[Recorder]:
    """The recorder a run writes to; ``None`` means an untraced run.

    A caller's enabled recorder switches tracing on by itself; a
    ``NullRecorder`` counts as "tracing disabled" even with
    ``trace=True`` (zero-cost no-op).
    """
    if recorder is not None:
        return recorder if recorder.enabled else None
    return Recorder(source="simulator") if trace else None


class FaultState(NamedTuple):
    """A fault plan expanded for one run (all "off" without a plan)."""

    #: some straggler window exists: durations depend on start time.
    slow: bool
    #: node -> completed-task count at which it fail-stops.
    crash_after: dict[int, int]
    #: per-node fail-stopped flags (None when no crash is planned).
    dead: Optional[list[bool]]
    completed_on: list[int]
    #: ``(src, dst) -> bool``: does this delivery evaporate?  or None.
    lost: Optional[Callable[[int, int], bool]]
    #: ``(src, dst, time) -> float`` wire-time multiplier, or None.
    wire_factor: Optional[Callable[[int, int, float], float]]

    def task_completed(self, node: int, now: float,
                       rec: Optional[Recorder]) -> None:
        """Count a task completed on ``node`` while it lives and fail-stop
        it at its crash point: in-flight tasks finish — their events are
        queued — and nothing new starts there."""
        if self.dead is None or self.dead[node]:
            return
        self.completed_on[node] += 1
        point = self.crash_after.get(node)
        if point is not None and self.completed_on[node] >= point:
            self.dead[node] = True
            if rec is not None:
                rec.record_fault(
                    "crash", time=now, node=node,
                    detail=f"after {self.completed_on[node]} tasks")


def fault_state(faults: Optional[FaultPlan], num_nodes: int, ctopo: Any,
                rec: Optional[Recorder]) -> FaultState:
    """Expand ``faults`` for a run on ``num_nodes`` nodes over the compiled
    topology ``ctopo`` (or None), declaring its windows on ``rec``."""
    completed_on = [0] * num_nodes
    if faults is None:
        return FaultState(False, {}, None, completed_on, None, None)
    if rec is not None:
        # Declared up front so the trace shows the windows even if
        # nothing lands inside one.
        for w in faults.slowdowns:
            rec.record_fault("slowdown", time=w.start, node=w.node,
                             detail=f"x{w.factor} until {w.end:g}")
        for ln in faults.links:
            rec.record_fault("degraded", time=ln.start, src=ln.src, dst=ln.dst,
                             detail=f"x{ln.factor} until {ln.end:g}")
    crash_after = {c.node: c.after_tasks for c in faults.crashes}
    loss = faults.loss_state()
    lost: Optional[Callable[[int, int], bool]]
    if loss is None:
        lost = None
    elif ctopo is None:
        lost = loss.lost
    else:
        # Loss targets topology edges: roll every hop of the pair's
        # deterministic route (single-hop cliques reduce to loss.lost).
        lost = lambda s, d: ctopo.roll_loss(loss, s, d)  # noqa: E731
    return FaultState(
        bool(faults.slowdowns), crash_after,
        [False] * num_nodes if crash_after else None,
        completed_on, lost, faults.link_factor if faults.links else None)


def check_finished(done: int, n_tasks: int, blocked: int,
                   state: FaultState) -> None:
    """Raise the diagnosis of a run whose loop drained with tasks left:
    a :class:`SimulatedFailure` naming the crashed nodes, else a deadlock
    ``RuntimeError`` (``blocked`` tasks were held by iteration barriers)."""
    if done == n_tasks:
        return
    if state.dead is not None and any(state.dead):
        crashed = ", ".join(
            f"node {i} after {state.completed_on[i]} tasks"
            for i, dead in enumerate(state.dead) if dead)
        raise SimulatedFailure(
            f"simulated worker crash ({crashed}): "
            f"{n_tasks - done}/{n_tasks} tasks never ran")
    raise RuntimeError(
        f"simulation deadlock: executed {done}/{n_tasks} tasks "
        f"({blocked} blocked on barriers)")


def finish(machine: MachineSpec, makespan: float, total_flops: float,
           comm_bytes: int, comm_messages: int, busy_time: list[float],
           time_by_kind: dict[str, float], n_tasks: int,
           rec: Optional[Recorder]) -> SimReport:
    """Close the recorder of a traced run and assemble the report."""
    if rec is not None:
        rec.finalize_utilization(busy_time, makespan, machine.cores)
        rec.metrics.gauge("makespan.seconds", "simulated makespan").set(makespan)
    return SimReport(
        makespan=makespan,
        total_flops=total_flops,
        num_nodes=machine.nodes,
        comm_bytes=int(comm_bytes),
        comm_messages=int(comm_messages),
        busy_time=busy_time,
        time_by_kind=time_by_kind,
        num_tasks=n_tasks,
        cores_per_node=machine.cores,
        trace=rec.task_events if rec is not None else None,
        transfers=rec.transfer_events if rec is not None else None,
        obs=rec,
    )
