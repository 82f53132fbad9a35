"""Discrete-event simulation of a task graph on a cluster.

Models the execution environment of the paper's experiments:

* each node runs ``machine.cores`` workers; a ready task is started on a
  free worker, highest priority first (StarPU's dynamic local scheduling);
* the owner-computes placement is already encoded in the graph;
* data produced on one node and read on another travels as one eager
  point-to-point message per (version, destination), overlapped with
  computation (§V-C: communications are asynchronous and per-tile);
* optional ``synchronized`` mode withholds tasks of iteration ``k`` until
  every task of iteration ``k-1`` has completed — the static fork-join
  behaviour of classical MPI implementations, used as the COnfCHOX-style
  baseline.

The simulated transferred bytes are, by construction, exactly the volume
reported by :func:`repro.comm.count_communications` on the same graph;
the test suite verifies the equality.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Callable
from typing import Optional

from ...config import MachineSpec
from ...graph.compiled import compile_graph
from ...graph.priorities import critical_path_priorities
from ...graph.task import DataKey, Task, TaskGraph
from ...obs import Recorder
from ...schedulers import GraphView, PriorityQueues, check_plan, get_policy
from ..faults import FaultPlan
from .harness import SimReport, check_finished, check_inputs, fault_state, finish, resolve_recorder
from .network import NetworkSim, Transfer, binomial_tree

__all__ = ["SimReport", "simulate"]


def simulate(
    graph: TaskGraph,
    machine: MachineSpec,
    synchronized: bool = False,
    duration_fn: Optional[Callable[[Task], float]] = None,
    auto_priorities: bool = True,
    trace: bool = False,
    broadcast: str = "direct",
    aggregate: bool = False,
    recorder: Optional[Recorder] = None,
    faults: Optional[FaultPlan] = None,
    scheduler=None,
) -> SimReport:
    """Simulate ``graph`` on ``machine``; see module docstring for the model.

    ``trace=True`` records per-task and per-message events; pass your own
    :class:`repro.obs.Recorder` as ``recorder`` to also collect metrics
    across several runs or to export the trace (``repro.obs.export``).
    The recorder is returned on ``SimReport.obs``.

    ``aggregate`` coalesces queued messages sharing a (source,
    destination) pair into one wire message — same bytes, fewer messages.

    ``broadcast`` selects how a version reaches its remote consumers:
    ``"direct"`` (the paper's setup: the producer sends one point-to-point
    message per destination) or ``"tree"`` (binomial forwarding: receivers
    relay the tile onwards, spreading the port load and reducing the
    depth of large fan-outs to log2 — the collective-communication
    optimization §V-C notes Chameleon does not perform).  Total message
    and byte counts are identical in both modes.

    ``faults`` injects a seeded :class:`repro.runtime.faults.FaultPlan`:
    straggler windows multiply task durations, link degradations multiply
    wire time, transient losses drop deliveries and retransmit after a
    timeout (retransmitted bytes/messages count), and worker crashes
    fail-stop a node — the run then raises a diagnostic
    :class:`SimulatedFailure` naming the crashed node.  The same plan
    produces bit-identical results on :func:`simulate_compiled`; see
    ``docs/network-model.md`` ("Fault model").

    ``scheduler`` selects a policy from :mod:`repro.schedulers` (a name
    from ``repro.schedulers.POLICIES`` or a ``SchedulerInterface``
    instance).  The default ``None`` — like the default
    ``"critical-path"`` policy — runs the engine's native behaviour
    bit-exactly; other policies may replace priorities, override task
    placement (only if they declare ``migrates``), force fork-join
    barriers, or plug in a dynamic ready-queue discipline — for this run
    only: ``Task.node`` and ``Task.priority`` are read, never written.
    See ``docs/schedulers.md``.
    """
    check_inputs(broadcast, len(graph.tasks), graph.nodes_used(), machine)
    tasks = graph.tasks
    # This run's placement and priorities.  The graph's own are inputs: a
    # run reads its graph and never writes it, so what it returns does not
    # depend on what the graph was simulated with before.
    place = [t.node for t in tasks]
    priority = [t.priority for t in tasks]
    if duration_fn is None:
        b = graph.b
        kernel = machine.kernel
        topo = machine.topology
        if topo is not None and topo.speed:
            # Heterogeneous nodes: the per-node speed multiplier divides
            # the homogeneous duration.  The compiled engine evaluates the
            # identical IEEE expression vectorized, keeping bit-equality.
            speed = topo.speed
            duration_fn = lambda t: kernel.duration(t.flops, b) / speed[place[t.id]]  # noqa: E731
        else:
            duration_fn = lambda t: kernel.duration(t.flops, b)  # noqa: E731

    queue_factory = PriorityQueues  # the native discipline
    if scheduler is not None:
        # Policies plan on the compiled plane (one view for both engines);
        # the thunks run only if the policy reads a column, so the default
        # policy lowers nothing.
        policy = get_policy(scheduler)
        splan = policy.plan(GraphView(
            lambda: compile_graph(graph), machine,
            lambda: [duration_fn(t) for t in tasks]))
        check_plan(policy, splan, place, machine.nodes)
        synchronized = synchronized or splan.synchronized
        if splan.priorities is not None:
            priority = list(splan.priorities)
            auto_priorities = False
        if splan.assignment is not None:
            place[:] = splan.assignment  # in place: duration_fn reads it
        if splan.queue_factory is not None:
            queue_factory = splan.queue_factory
    num_nodes = machine.nodes
    queue = queue_factory(num_nodes, machine.cores)
    if auto_priorities and not any(priority):
        # Bottom-level priorities mirror Chameleon's scheduling hints and
        # let both workers and the network favour the critical path.
        priority = critical_path_priorities(graph, duration_fn)

    n_tasks = len(tasks)

    # --- dependency bookkeeping --------------------------------------------
    # missing[t] = input instances not yet present at t's node.
    missing = [0] * n_tasks
    # consumers on the producing node, released when the producer finishes.
    local_consumers: dict[DataKey, list[int]] = defaultdict(list)
    # consumers at remote nodes, released when the transfer arrives.
    remote_needers: dict[tuple[DataKey, int], list[int]] = defaultdict(list)
    # destination nodes awaiting each key (drives eager transfer fan-out).
    key_dsts: dict[DataKey, list[int]] = defaultdict(list)
    initial_sources: list[tuple[DataKey, int]] = []  # misplaced initial data
    for t in tasks:
        node = place[t.id]
        for k in t.reads:
            pid = graph.producer.get(k)
            if pid is not None:
                missing[t.id] += 1
                if place[pid] == node:
                    local_consumers[k].append(t.id)
                else:
                    if (k, node) not in remote_needers:
                        key_dsts[k].append(node)
                    remote_needers[(k, node)].append(t.id)
            else:
                home = graph.initial[k][0]
                if home != node:
                    missing[t.id] += 1
                    if (k, node) not in remote_needers:
                        if k not in key_dsts:
                            initial_sources.append((k, home))
                        key_dsts[k].append(node)
                    remote_needers[(k, node)].append(t.id)

    # --- synchronized-mode bookkeeping -------------------------------------
    iterations = sorted({t.iteration for t in tasks})
    iter_pos = {it: i for i, it in enumerate(iterations)}
    iter_remaining = [0] * len(iterations)
    for t in tasks:
        iter_remaining[iter_pos[t.iteration]] += 1
    iter_blocked: dict[int, list[Task]] = defaultdict(list)
    released_idx = 0  # tasks with iteration index <= released_idx may run

    rec = resolve_recorder(trace, recorder)
    trace = rec is not None
    ctopo = (machine.topology.compiled()
             if machine.topology is not None else None)
    fstate = fault_state(faults, num_nodes, ctopo, rec)
    fault_slow, dead, lost_fn = fstate.slow, fstate.dead, fstate.lost

    free_workers = [machine.cores_for(i) for i in range(num_nodes)]
    net = NetworkSim(machine.network, num_nodes, aggregate=aggregate,
                     wire_factor=fstate.wire_factor, topology=ctopo)

    # --- event loop ---------------------------------------------------------
    events: list = []  # (time, seq, kind, payload)
    seq = 0
    busy_time = [0.0] * num_nodes
    time_by_kind: dict[str, float] = defaultdict(float)
    done = 0
    now = 0.0

    def push_event(time: float, kind: str, payload) -> None:
        nonlocal seq
        seq += 1
        heapq.heappush(events, (time, seq, kind, payload))

    ready_time = [0.0] * n_tasks if trace else None

    def start_task(task: Task, time: float) -> None:
        dur = duration_fn(task)
        node = place[task.id]
        if fault_slow:
            dur *= faults.compute_factor(node, time)
        busy_time[node] += dur
        time_by_kind[task.kind] += dur
        if trace:
            rec.record_task(task.id, task.kind, node,
                            ready_time[task.id], time, time + dur, task.flops)
        push_event(time + dur, "task", task)

    def enqueue_ready(task: Task, time: float) -> None:
        """Task has all inputs at its node; start it or queue it."""
        if trace:
            ready_time[task.id] = time
        if synchronized and iter_pos[task.iteration] > released_idx:
            iter_blocked[iter_pos[task.iteration]].append(task)
            return
        node = place[task.id]
        # A fail-stopped node parks the task forever; the run ends with a
        # diagnostic SimulatedFailure.
        parked = dead is not None and dead[node]
        if free_workers[node] > 0 and not parked:
            free_workers[node] -= 1
            start_task(task, time)
            return
        queue.push(node, task.id, priority[task.id])
        if trace and not parked:
            rec.metrics.gauge(
                "queue.depth.max", "peak ready-queue depth per node"
            ).set_max(queue.depth(node), labels=(node,))

    def data_arrived_local(key: DataKey, time: float) -> None:
        for tid in local_consumers.get(key, ()):
            missing[tid] -= 1
            if missing[tid] == 0:
                enqueue_ready(tasks[tid], time)

    def data_arrived_remote(key: DataKey, dst: int, time: float) -> None:
        for tid in remote_needers.pop((key, dst), ()):
            missing[tid] -= 1
            if missing[tid] == 0:
                enqueue_ready(tasks[tid], time)

    def launch(quantum) -> None:
        tr, egress_done, delivery, final = quantum
        push_event(egress_done, "sent", tr)
        if final:
            push_event(delivery, "xfer", tr)

    # Forwarding plans for tree broadcasts: (key, node) -> the
    # (child node, priority) edges the node relays on delivery.
    tree_children: dict[tuple[DataKey, int], list[tuple[int, float]]] = {}

    def _send(key: DataKey, src: int, dst: int, prio: float, time: float) -> None:
        started = net.submit(Transfer(key, src, dst, graph.data_bytes(key), prio), time)
        if started is not None:
            launch(started)

    def request_transfers(key: DataKey, src: int, time: float) -> None:
        """Eagerly push a fresh version to every remote consumer node."""
        dsts = key_dsts.pop(key, None)
        if not dsts:
            return
        prios = [
            max(priority[tid] for tid in remote_needers[(key, dst)])
            for dst in dsts
        ]
        if broadcast == "direct" or len(dsts) == 1:
            sends = zip(dsts, prios)
        else:
            sends, forwards = binomial_tree(dsts, prios)
            for node, edges in forwards.items():
                tree_children[(key, node)] = edges
        for dst, prio in sends:
            _send(key, src, dst, prio, time)

    def release_iterations(time: float) -> None:
        nonlocal released_idx
        while (
            released_idx + 1 < len(iterations)
            and iter_remaining[released_idx] == 0
        ):
            released_idx += 1
            for task in iter_blocked.pop(released_idx, []):
                if missing[task.id] == 0:
                    enqueue_ready(task, time)

    # Kick off: source tasks and transfers of misplaced initial data.
    for t in tasks:
        if missing[t.id] == 0:
            enqueue_ready(t, 0.0)
    for key, home in initial_sources:
        request_transfers(key, home, 0.0)

    while events:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "task":
            task = payload
            done += 1
            n = place[task.id]
            if dead is not None:
                fstate.task_completed(n, now, rec)
            if dead is not None and dead[n]:
                pass  # no workers left to pick up the next ready task
            else:
                tid = queue.pop(n)
                if tid is not None:
                    start_task(tasks[tid], now)
                else:
                    free_workers[n] += 1
            if task.write is not None:
                data_arrived_local(task.write, now)
                request_transfers(task.write, n, now)
            if synchronized:
                iter_remaining[iter_pos[task.iteration]] -= 1
                release_iterations(now)
        elif kind == "sent":  # source egress channel freed
            nxt = net.egress_freed(payload.src, now)
            if nxt is not None:
                launch(nxt)
        elif kind == "retry":  # retransmission of a lost message
            old = payload
            if trace:
                rec.record_fault("retry", time=now, src=old.src, dst=old.dst,
                                 key=old.key)
            started = net.submit(old.retransmission(), now)
            if started is not None:
                launch(started)
        else:  # transfer delivered at the destination
            tr = payload
            if lost_fn is not None and lost_fn(tr.src, tr.dst):
                # Transient loss: the message evaporates in flight; the
                # sender retransmits after the plan's timeout (the lost
                # bytes stayed on the wire and remain counted).
                if trace:
                    rec.record_fault(
                        "loss", time=tr.end, src=tr.src, dst=tr.dst,
                        key=tr.key,
                        detail=f"retry at {tr.end + faults.retransmit_timeout:.6g}",
                    )
                push_event(tr.end + faults.retransmit_timeout, "retry", tr)
                continue
            if trace:
                rec.record_transfer(
                    key=tr.key,
                    src=tr.src,
                    dst=tr.dst,
                    nbytes=tr.nbytes,
                    submitted=tr.submitted,
                    started=tr.started,
                    delivered=tr.end,
                )
            for key in tr.keys:
                data_arrived_remote(key, tr.dst, tr.end)
                for child, prio in tree_children.pop((key, tr.dst), ()):
                    _send(key, tr.dst, child, prio, tr.end)

    check_finished(done, n_tasks,
                   sum(len(v) for v in iter_blocked.values()), fstate)

    return finish(machine, now, graph.total_flops(), net.total_bytes,
                  net.total_messages, busy_time, dict(time_by_kind), n_tasks,
                  rec)
