"""Array-plane discrete-event engine over a :class:`CompiledGraph`.

This is the same simulation as :func:`repro.runtime.simulator.engine
.simulate` — same network model (the :class:`NetworkSim` instance is
shared code), same scheduling policy, same event ordering — but the event
loop walks integer task/data ids over the flat arrays produced by
:mod:`repro.graph.compiled` instead of ``Task`` objects and dict-of-list
dependency maps.  Every bookkeeping structure is lowered to a compact
Python-native form chosen for constant-time, allocation-free access in
the loop:

* per-task node / kind columns become ``bytes`` (values are small, so
  indexing yields interned ints and the working set stays cache-sized);
* the missing-input counters live in one ``bytearray``;
* the common ``write_id[t] == n_init + t`` layout of the column sink
  is detected and replaced by arithmetic, skipping a 10M-entry table;
* CSR adjacency and the numeric per-task/per-pair columns are indexed
  through zero-copy ``memoryview``s of the plan's contiguous numpy
  arrays — boxed-number-free storage (8 bytes per entry instead of a
  pointer to a boxed number each) without duplicating the buffers.

The loop itself is scalar Python throughout, deliveries included: a
message wakes 2.4 (2DBC 7x4, N = 32) to 16.6 (SBC r = 9, N = 200) waiting
tasks on average, and a numpy gather / scatter over slices that small
costs several times the plain loop over them (``docs/ledger.md``, PR 24).

This is the simulator's *core*, the one timed implementation:
:func:`simulate_compiled` is :func:`_prepare` (validate, plan, settle
priorities) -> :func:`_numpy_loop` (the event loop) -> :func:`_report`.
One loop serves every configuration.  Barriers, faults, a custom ready
queue and a routed topology are flags read off the prepared run before
it starts; each sends only its own steps to the helpers the inlined
path otherwise skips.  The loop appends the run's timeline to two logs
(:func:`repro.obs.timeline.new_log`: each start's completion event and
each queue entry, each delivered message) and records no event: a
traced run keeps the logs and its trace is rebuilt from them after the
loop (:func:`repro.obs.timeline.rebuild`), also when the loop raised;
an untraced run's logs have length zero.

The transcription is deliberately statement-by-statement faithful to the
object engine, including the order in which events are pushed (the heap
tie-breaker is the push sequence number): the equality suite asserts
*exact* equality of makespan, bytes and messages between the two across
distributions, broadcast modes and aggregation settings.  The object
engine is the *oracle* — prefer it for small graphs, custom
``duration_fn`` callables and exploratory changes; see
``docs/network-model.md`` ("Scaling limits") and ``docs/architecture.md``
("The oracle/core contract").
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from collections import defaultdict, deque
from typing import Any, NamedTuple, Optional

import numpy as np

from ...config import MachineSpec
from ...graph.compiled import CompiledGraph, compiled_critical_path_priorities
from ...obs import NULL_RECORDER, Recorder
from ...obs.timeline import new_log, rebuild
from ..faults import FaultPlan
from .harness import (
    FaultState,
    SimReport,
    check_finished,
    check_inputs,
    fault_state,
    finish,
    resolve_recorder,
)
from .network import NetworkSim, Transfer, binomial_tree

__all__ = ["default_durations", "simulate_compiled"]


class _Run(NamedTuple):
    """What :func:`_prepare` hands the loop: the graph with its final
    placement, the run's settled priorities and every option resolved."""

    cg: CompiledGraph
    machine: MachineSpec
    durations: np.ndarray
    priority: np.ndarray  # float64[n_tasks]; the graph's own column is an input
    plan: Any  # the graph's comm plan
    pair_prio: np.ndarray  # float64[n_pairs] transfer priorities
    ctopo: Any  # CompiledTopology, or None for the scalar network
    cqueue: Any  # the policy's custom ReadyQueue, or None
    synchronized: bool
    broadcast: str
    aggregate: bool
    rec: Optional[Recorder]  # where a traced run records; None = untraced
    faults: Optional[FaultPlan]


def simulate_compiled(
    cg: CompiledGraph,
    machine: MachineSpec,
    synchronized: bool = False,
    durations: Optional[np.ndarray] = None,
    auto_priorities: bool = True,
    trace: bool = False,
    broadcast: str = "direct",
    aggregate: bool = False,
    recorder: Optional[Recorder] = None,
    faults: Optional[FaultPlan] = None,
    scheduler=None,
) -> SimReport:
    """Simulate a compiled graph on ``machine``.

    Accepts the same options as the object engine's ``simulate`` except
    that custom task durations are passed as a per-task array
    (``durations``) rather than a callable.  Returns the same
    :class:`SimReport`.

    Makespan, bytes and messages are bit-identical to the object
    engine's (asserted in ``tests/test_compiled_engine.py``).

    ``scheduler`` names a policy from :data:`repro.schedulers.POLICIES`
    (or passes a ``SchedulerInterface`` instance); ``scheduler=None`` /
    ``"critical-path"`` leaves every native code path untouched, so
    default runs stay bit-exact with the object engine.

    A run reads ``cg`` and never writes it: a non-zero ``cg.priority``
    column is an input (used as given); a policy's priorities, or the
    ``auto_priorities`` bottom levels under this run's durations, live
    with the run — no result depends on what ``cg`` was simulated with before.

    A :class:`repro.runtime.faults.FaultPlan` produces bit-identical
    makespan/bytes/messages to the object engine under the same plan
    (a plan with degraded links serves every network quantum through the
    shared :class:`NetworkSim` code, so the injected wire factors agree
    exactly).
    """
    return _numpy_loop(_prepare(
        cg, machine, synchronized, durations, auto_priorities, trace,
        broadcast, aggregate, recorder, faults, scheduler))


def default_durations(cg: CompiledGraph, machine: MachineSpec) -> np.ndarray:
    """Per-task seconds under ``machine``'s kernel model, divided by the
    per-node speed multiplier on a heterogeneous topology — elementwise
    the IEEE expression the object engine's default ``duration_fn``
    evaluates per task.  What every run without custom durations charges,
    and what the analyzers plan policies against."""
    kernel = machine.kernel
    durations = kernel.overhead + cg.flops / kernel.rate(cg.b)
    topo = machine.topology
    if topo is not None and topo.speed:
        durations = durations / np.asarray(topo.speed, dtype=np.float64)[cg.node]
    return durations


def _prepare(cg, machine, synchronized=False, durations=None,
             auto_priorities=True, trace=False, broadcast="direct",
             aggregate=False, recorder=None, faults=None,
             scheduler=None) -> _Run:
    """The prelude of :func:`simulate_compiled` (same arguments): validate,
    derive durations, apply the scheduler policy, settle priorities and
    build the comm plan — everything up to the event loop."""
    check_inputs(broadcast, cg.n_tasks, cg.nodes_used(), machine)
    num_nodes = machine.nodes
    derived = durations is None
    if derived:
        # A caller-supplied array is used verbatim (like a custom
        # ``duration_fn`` on the object engine).
        durations = default_durations(cg, machine)

    # --- scheduler policy (repro.schedulers) --------------------------------
    # Applied before any lowering so placement, priorities and the comm
    # plan all reflect the policy's choices; a placement lands on a clone
    # of ``cg`` (``reassigned``).
    cqueue = None
    priority = cg.priority
    if scheduler is not None:
        from ...schedulers import GraphView, check_plan, get_policy

        policy = get_policy(scheduler)
        splan = policy.plan(GraphView(cg, machine, durations))
        check_plan(policy, splan, cg.node, num_nodes)
        synchronized = synchronized or splan.synchronized
        if splan.assignment is not None:
            cg = cg.reassigned(splan.assignment)
            if derived:  # a migrated task runs at its new node's speed
                durations = default_durations(cg, machine)
        if splan.priorities is not None:
            priority = np.ascontiguousarray(splan.priorities, dtype=np.float64)
            auto_priorities = False
        if splan.queue_factory is not None:
            cqueue = splan.queue_factory(num_nodes, machine.cores)
    if auto_priorities and not priority.any():
        priority = compiled_critical_path_priorities(cg, durations)

    plan = cg.comm_plan()
    ctopo = (machine.topology.compiled()
             if machine.topology is not None else None)

    # Per-pair transfer priority: max over the waiting tasks, exactly the
    # max() the object engine evaluates at request time.
    n_pairs = len(plan.pair_dst)
    pair_prio = np.empty(n_pairs, dtype=np.float64)
    if n_pairs:
        starts = plan.pair_rn_start
        order = np.argsort(starts, kind="stable")
        pair_prio[order] = np.maximum.reduceat(
            priority[plan.rn_ids], starts[order])

    return _Run(cg, machine, durations, priority, plan, pair_prio, ctopo, cqueue,
                synchronized, broadcast, aggregate,
                resolve_recorder(trace, recorder), faults)


def _numpy_loop(run: _Run) -> SimReport:
    """The event loop, for every configuration."""
    (cg, machine, durations, priority, plan, pair_prio_arr, ctopo, cqueue, synchronized,
     broadcast, aggregate, rec, faults) = run
    n_tasks = cg.n_tasks
    num_nodes = machine.nodes

    # --- lowered per-run state ---------------------------------------------
    # ``bytes``/``bytearray`` columns index ~as fast as lists but without a
    # pointer per entry: at N = 400 the task columns alone would otherwise
    # be ~90 MB of pointers each, and the loop's working set falls out of
    # cache (see module docstring).
    if num_nodes <= 256:
        node_l = cg.node.astype(np.uint8).tobytes()
    else:
        node_l = cg.node.tolist()
    if len(cg.kind_names) <= 256:
        kind_l = cg.kind_codes.astype(np.uint8).tobytes()
    else:
        kind_l = cg.kind_codes.tolist()
    n_init = cg.n_init
    # The column sink emits write_id[t] == n_init + t; detect it and
    # use arithmetic instead of a 10M-entry table.  Produced versions are
    # numbered n_init, n_init + 1, ... in task order (see
    # ``CompiledGraph.write_id``), so that is every task writing.
    write_dense = cg.n_data - n_init == n_tasks
    write_l = None if write_dense else cg.write_id.tolist()
    # Numeric columns are indexed through ``memoryview``s of contiguous
    # numpy arrays: indexing boxes a fresh int/float per access exactly
    # like ``array.array`` (same speed, measured), but the views are
    # zero-copy — at N = 400, copying these columns into ``array.array``
    # buffers would duplicate ~470 MB that the plan already holds.
    dur_l = memoryview(np.ascontiguousarray(durations, dtype=np.float64))
    # Ready-queue keys are -priority; pre-negate once (the view keeps the
    # negated array alive).
    negprio_l = memoryview(np.negative(priority))
    # A custom ReadyQueue takes the un-negated priority (same argument the
    # object engine hands its queue).
    prio_l = priority.tolist() if cqueue is not None else None
    mi = plan.missing
    if mi.size == 0 or int(mi.max()) < 256:
        missing = bytearray(mi.astype(np.uint8).tobytes())
    else:
        missing = mi.tolist()
    lc_ptr = memoryview(np.ascontiguousarray(plan.lc_ptr))
    # kd_ptr is consulted per *message* (rare), but "does this data have
    # remote destinations at all" per *task* (hot): a bytes bitmap answers
    # the hot question in one index with no boxed-int churn.
    has_remote = (plan.kd_ptr[1:] != plan.kd_ptr[:-1]).tobytes()
    kd_ptr = memoryview(np.ascontiguousarray(plan.kd_ptr))
    pair_dst = memoryview(np.ascontiguousarray(plan.pair_dst))
    rn_start = memoryview(np.ascontiguousarray(plan.pair_rn_start))
    rn_count = memoryview(np.ascontiguousarray(plan.pair_rn_count))
    nbytes_l = memoryview(np.ascontiguousarray(cg.data_nbytes, dtype=np.int64))
    # Local-consumer ids are sliced per completed task (many, tiny
    # slices); the view shares the plan's buffer.
    lc_ids = memoryview(np.ascontiguousarray(plan.lc_ids))
    # Remote-needer ids likewise, one slice per delivered message (a
    # handful of tasks each — see the module docstring).
    rn_ids = memoryview(np.ascontiguousarray(plan.rn_ids))

    n_pairs = len(pair_dst)
    pair_prio = memoryview(pair_prio_arr)
    # Deliveries resolve (data, dst) -> pair index by scanning the data's
    # kd slice (a handful of destinations) instead of a dict keyed on
    # data*num_nodes+dst: a few boxed compares per message in exchange
    # for dropping the ~n_pairs-entry dict from the working set.

    # --- synchronized-mode bookkeeping -------------------------------------
    if synchronized:
        iters, inverse = np.unique(cg.iteration, return_inverse=True)
        ipos = inverse.tolist()
        iter_remaining = np.bincount(inverse, minlength=len(iters)).tolist()
        n_iters = len(iters)
    else:
        ipos = None
        iter_remaining = []
        n_iters = 0
    iter_blocked: dict[int, list[int]] = defaultdict(list)
    released_idx = 0

    free = [machine.cores_for(i) for i in range(num_nodes)]
    # Per-node ready queue as a bucket queue: a FIFO deque per distinct
    # -priority plus a small heap of the distinct -priorities present.
    # Pop order (highest priority, FIFO within ties) is identical to the
    # object engine's (-priority, seq) heap, but push/pop cost no
    # log-depth tuple comparisons — the queues hold millions of entries
    # at paper scale.
    buckets: list[dict] = [{} for _ in range(num_nodes)]
    pheap: list[list] = [[] for _ in range(num_nodes)]

    fstate = fault_state(faults, num_nodes, ctopo, rec)
    fault_slow, dead, lost_fn = fstate.slow, fstate.dead, fstate.lost
    # Under a slowdown the per-task duration depends on start time, so the
    # end-of-run busy-time bincount is wrong; accumulate like the object
    # engine instead.
    busy_acc = [0.0] * num_nodes if fault_slow else None
    tbk_acc = [0.0] * len(cg.kind_names) if fault_slow else None

    net = NetworkSim(machine.network, num_nodes, aggregate=aggregate,
                     wire_factor=fstate.wire_factor, topology=ctopo)
    # The loop transcribes the per-quantum server inline (the single
    # hottest network path); bind its state once.
    net_queues = net._queues
    net_ingress = net._ingress_free
    net_egress_busy = net._egress_busy
    net_busy = net.busy_time
    net_quantum = net.quantum
    net_bw = net._bandwidth
    net_lat = net._latency

    # --- event loop ---------------------------------------------------------
    # Events are (time, seq, kind, payload): a task completion carries the
    # task's start time as its kind (>= 0.0; payload: task id), -1.0 =
    # egress freed (payload: source node), -2.0 = delivery (payload:
    # Transfer), -3.0 = retransmission of a lost message (payload:
    # Transfer) — the object engine's "task"/"sent"/"xfer"/"retry".  Every
    # kind is a float, so the dispatch compares floats only.
    events: list = []
    seq = 0
    now = 0.0

    # The run's timeline (repro.obs.timeline): each start's completion
    # event and each queue entry (time, task) in loop order, each
    # delivered message in delivery order.  A traced run keeps the logs
    # and rebuilds its trace from them; otherwise they have length zero.
    run_log, deliveries = new_log(rec is not None), new_log(rec is not None)
    log, delivered = run_log.append, deliveries.append
    frec = rec if rec is not None else NULL_RECORDER
    # the traced name of a message's (first) tile
    data_keys = cg.data_keys if cg.data_keys is not None else range(cg.n_data)

    def start_task(t: int, n: int, time: float) -> None:
        nonlocal seq
        dur = dur_l[t]
        if fault_slow:
            dur *= faults.compute_factor(n, time)
            busy_acc[n] += dur
            tbk_acc[kind_l[t]] += dur
        seq += 1
        ev = (time + dur, seq, time, t)
        heappush(events, ev)
        log(ev)

    def enqueue_ready(t: int, time: float) -> None:
        if synchronized and ipos[t] > released_idx:
            iter_blocked[ipos[t]].append(t)
            return
        n = node_l[t]
        # A fail-stopped node parks the task forever (mirrors
        # engine.simulate); the run ends in a SimulatedFailure.
        parked = dead is not None and dead[n]
        if free[n] > 0 and not parked:
            free[n] -= 1
            start_task(t, n, time)
            return
        if cqueue is not None:
            cqueue.push(n, t, prio_l[t])
        else:
            np_ = negprio_l[t]
            bq = buckets[n]
            b = bq.get(np_)
            if b is None:
                bq[np_] = deque((t,))
                heappush(pheap[n], np_)
            else:
                b.append(t)
        if not parked:
            log((time, t))

    def launch(quantum) -> None:
        nonlocal seq
        tr, egress_done, delivery, final = quantum
        seq += 1
        heappush(events, (egress_done, seq, -1.0, tr.src))
        if final:
            seq += 1
            heappush(events, (delivery, seq, -2.0, tr))

    def _send(d: int, src: int, dst: int, prio: float, time: float) -> None:
        first = net.submit(Transfer(d, src, dst, nbytes_l[d], prio), time)
        if first is not None:
            launch(first)

    # Forwarding plans for tree broadcasts: (data id, node) -> the
    # (child node, priority) edges the node relays on delivery.
    tree_children: dict[tuple[int, int], list[tuple[int, float]]] = {}
    direct = broadcast == "direct"

    def request_transfers(d: int, src: int, time: float) -> None:
        p0 = kd_ptr[d]
        p1 = kd_ptr[d + 1]
        if p0 == p1:
            return
        if direct or p1 - p0 == 1:
            for p in range(p0, p1):
                _send(d, src, pair_dst[p], pair_prio[p], time)
            return
        sends, forwards = binomial_tree(pair_dst[p0:p1], pair_prio[p0:p1])
        for node, edges in forwards.items():
            tree_children[(d, node)] = edges
        for dst, prio in sends:
            _send(d, src, dst, prio, time)

    def release_iterations(time: float) -> None:
        nonlocal released_idx
        while (
            released_idx + 1 < n_iters
            and iter_remaining[released_idx] == 0
        ):
            released_idx += 1
            for t in iter_blocked.pop(released_idx, []):
                if missing[t] == 0:
                    enqueue_ready(t, time)

    # Kick off: source tasks (ascending id, like the object engine's scan)
    # and transfers of misplaced initial data.
    for t in np.flatnonzero(mi == 0).tolist():
        enqueue_ready(t, 0.0)
    for d, home in plan.initial_sources:
        request_transfers(d, home, 0.0)

    delivered_pairs = bytearray(n_pairs)

    # The loop and a trace's rebuild allocate only acyclic temporaries,
    # reclaimed by refcounting; with tens of millions of live ints in the
    # lowered lists, letting the cyclic collector run full passes here
    # costs more than the whole event loop.  One loop serves every
    # configuration; each feature is a flag set here, and only its own
    # steps leave the inlined path for the helpers above — a call (and the
    # closure-cell reloads it forces) is measurable at ten million calls.
    # Crashes, a custom queue or a slowdown: enqueues go through
    # enqueue_ready and a slowdown's starts through start_task.  Under
    # barriers only the enqueues a barrier holds back do.
    special = dead is not None or cqueue is not None or fault_slow
    # A topology or a wire factor: quanta are served by NetworkSim itself.
    net_plain = ctopo is None and fstate.wire_factor is None
    # Direct sends on such a network are submitted inline, statement for
    # statement what NetworkSim.submit does without aggregation.
    plain_send = direct and not aggregate and net_plain
    _hpush, _hpop = heappush, heappop
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while events:
            now, _evseq, kind, payload = _hpop(events)
            if kind >= 0.0:  # task completion
                t = payload
                n = node_l[t]
                if dead is not None:
                    fstate.task_completed(n, now, rec)
                if dead is not None and dead[n]:
                    pass  # fail-stopped: no workers left to start anything
                elif cqueue is not None:
                    t2 = cqueue.pop(n)
                    if t2 is None:
                        free[n] += 1
                    else:
                        start_task(t2, n, now)
                elif ph := pheap[n]:
                    np0 = ph[0]
                    bq = buckets[n]
                    b2 = bq[np0]
                    t2 = b2.popleft()
                    if not b2:
                        _hpop(ph)
                        del bq[np0]
                    if fault_slow:
                        start_task(t2, n, now)
                    else:
                        seq += 1
                        ev = (now + dur_l[t2], seq, now, t2)
                        _hpush(events, ev)
                        log(ev)
                else:
                    free[n] += 1
                d = t + n_init if write_dense else write_l[t]
                if d >= 0:
                    a = lc_ptr[d]
                    b = lc_ptr[d + 1]
                    if a != b:
                        # most tiles have exactly one local consumer;
                        # skip the slice allocation for that case
                        for tid in ((lc_ids[a],) if b - a == 1
                                    else lc_ids[a:b]):
                            m = missing[tid] - 1
                            missing[tid] = m
                            if m == 0:
                                if special or (synchronized and ipos[tid] > released_idx):
                                    enqueue_ready(tid, now)
                                    continue
                                n2 = node_l[tid]
                                if free[n2] > 0:
                                    free[n2] -= 1
                                    seq += 1
                                    ev = (now + dur_l[tid], seq, now, tid)
                                    _hpush(events, ev)
                                    log(ev)
                                else:
                                    np_ = negprio_l[tid]
                                    bq = buckets[n2]
                                    b3 = bq.get(np_)
                                    if b3 is None:
                                        bq[np_] = deque((tid,))
                                        _hpush(pheap[n2], np_)
                                    else:
                                        b3.append(tid)
                                    log((now, tid))
                    if not has_remote[d]:
                        pass  # no remote reader
                    elif not plain_send:
                        request_transfers(d, n, now)
                    else:
                        nb = nbytes_l[d]
                        for p in range(kd_ptr[d], kd_ptr[d + 1]):
                            dst = pair_dst[p]
                            prio = pair_prio[p]
                            tr = Transfer(d, n, dst, nb, prio)
                            if not (0 <= n < num_nodes
                                    and 0 <= dst < num_nodes and n != dst):
                                net.submit(tr, now)  # raises submit's error
                            tr.submitted = now
                            net.total_bytes += nb
                            net.total_messages += 1
                            s2 = net._seq + 1  # submit's push
                            net._seq = s2
                            if net_egress_busy[n]:
                                _hpush(net_queues[n], (-prio, s2, tr))
                                continue
                            # an idle port serves the first quantum now
                            size = net_quantum if net_quantum < nb else nb
                            wire = size / net_bw
                            occupancy = wire + net_lat
                            egress_done = tr.started = now + occupancy
                            ingress = net_ingress[dst] + wire
                            delivery = egress_done if egress_done > ingress else ingress
                            net_ingress[dst] = delivery
                            net_egress_busy[n] = True
                            net_busy[n] += occupancy
                            seq += 1
                            _hpush(events, (egress_done, seq, -1.0, n))
                            tr.remaining = remaining = nb - size
                            if remaining:  # back in line, as in egress_freed
                                net._seq = s2 + 1
                                _hpush(net_queues[n], (-prio, s2 + 1, tr))
                            else:
                                tr.end = delivery
                                seq += 1
                                _hpush(events, (delivery, seq, -2.0, tr))
                if synchronized:
                    iter_remaining[ipos[t]] -= 1
                    if not iter_remaining[released_idx]:
                        release_iterations(now)
            elif kind == -1.0:  # source egress channel freed
                src_n = payload
                if not net_plain:
                    nxt = net.egress_freed(src_n, now)
                    if nxt is not None:
                        launch(nxt)
                    continue
                queue = net_queues[src_n]
                while queue:
                    negprio, _s, tr = _hpop(queue)
                    if negprio == -tr.priority:
                        break
                else:
                    net_egress_busy[src_n] = False
                    continue
                remaining = tr.remaining
                size = net_quantum if net_quantum < remaining else remaining
                remaining -= size
                tr.remaining = remaining
                wire = size / net_bw
                if tr.started >= 0.0:
                    occupancy = wire
                    egress_done = now + wire
                else:  # the first quantum pays the latency
                    occupancy = wire + net_lat
                    egress_done = tr.started = now + occupancy
                dst = tr.dst
                ingress = net_ingress[dst] + wire
                delivery = egress_done if egress_done > ingress else ingress
                net_ingress[dst] = delivery
                net_busy[src_n] += occupancy
                seq += 1
                if remaining:  # back in line (negprio is -tr.priority)
                    s2 = net._seq + 1
                    net._seq = s2
                    _hpush(queue, (negprio, s2, tr))
                    _hpush(events, (egress_done, seq, -1.0, src_n))
                else:
                    tr.end = delivery
                    _hpush(events, (egress_done, seq, -1.0, src_n))
                    seq += 1
                    _hpush(events, (delivery, seq, -2.0, tr))
            elif kind == -2.0:  # transfer delivered at the destination
                tr = payload
                if lost_fn is not None and lost_fn(tr.src, tr.dst):
                    # Transient loss: the message evaporates in flight;
                    # the sender retransmits after the plan's timeout.
                    frec.record_fault(
                        "loss", time=tr.end, src=tr.src, dst=tr.dst,
                        key=data_keys[tr.key],
                        detail="retry at "
                        f"{tr.end + faults.retransmit_timeout:.6g}",
                    )
                    seq += 1
                    _hpush(events,
                           (tr.end + faults.retransmit_timeout, seq, -3.0, tr))
                    continue
                delivered(tr)
                dst = tr.dst
                end = tr.end
                for d in tr.keys:
                    p = kd_ptr[d]
                    while pair_dst[p] != dst:
                        p += 1
                    if not delivered_pairs[p]:
                        delivered_pairs[p] = 1
                        s0 = rn_start[p]
                        for tid in rn_ids[s0:s0 + rn_count[p]]:
                            m = missing[tid] - 1
                            missing[tid] = m
                            if m == 0:
                                if special or (synchronized and ipos[tid] > released_idx):
                                    enqueue_ready(tid, end)
                                    continue
                                n2 = node_l[tid]
                                if free[n2] > 0:
                                    free[n2] -= 1
                                    seq += 1
                                    ev = (end + dur_l[tid], seq, end, tid)
                                    _hpush(events, ev)
                                    log(ev)
                                else:
                                    np_ = negprio_l[tid]
                                    bq = buckets[n2]
                                    b3 = bq.get(np_)
                                    if b3 is None:
                                        bq[np_] = deque((tid,))
                                        _hpush(pheap[n2], np_)
                                    else:
                                        b3.append(tid)
                                    log((end, tid))
                    if not direct:
                        for child, prio in tree_children.pop((d, dst), ()):
                            _send(d, dst, child, prio, end)
            else:  # retransmission of a lost message
                old = payload
                frec.record_fault("retry", time=now, src=old.src,
                                  dst=old.dst, key=data_keys[old.key])
                first = net.submit(old.retransmission(), now)
                if first is not None:
                    launch(first)
    finally:
        try:  # the trace, before a crash is reported or when the loop raised
            if rec is not None:
                tasks, transfers, peaks = rebuild(cg, run_log, deliveries)
                # freed before the collector is back, which would walk them
                run_log.clear()
                deliveries.clear()
                rec.record_tasks(tasks)
                rec.record_transfers(transfers)
                del tasks, transfers
                for n, depth in peaks.items():
                    rec.metrics.gauge(
                        "queue.depth.max", "peak ready-queue depth per node"
                    ).set_max(depth, labels=(n,))
        finally:
            if gc_was_enabled:
                gc.enable()

    if cqueue is not None:
        queued = cqueue.total()
    else:
        queued = sum(len(q) for bq in buckets for q in bq.values())
    blocked = sum(len(v) for v in iter_blocked.values())
    if isinstance(missing, bytearray):
        unready = int(np.count_nonzero(np.frombuffer(missing, dtype=np.uint8)))
    else:
        unready = sum(1 for m in missing if m)
    return _report(run, now, net.total_bytes, net.total_messages,
                   n_tasks - queued - blocked - unready, blocked, fstate,
                   (busy_acc, tbk_acc) if fault_slow else None)


def _report(run: _Run, now: float, comm_bytes: int, comm_messages: int,
            done: int, blocked: int, fstate: FaultState,
            slowed: Any) -> SimReport:
    """The tail of the run: diagnose one that did not execute every
    task, then assemble the :class:`SimReport`.

    ``fstate`` is the run's fault state and ``slowed`` carries the
    ``(busy_time, time_by_kind)`` accumulators of a slowdown run (else
    ``None``).
    """
    cg, machine, durations = run[:3]
    n_tasks = cg.n_tasks
    num_nodes = machine.nodes
    kind_names = cg.kind_names
    check_finished(done, n_tasks, blocked, fstate)

    if slowed is not None:
        # Slowed durations depend on each task's start time, so they were
        # accumulated in event order, exactly like the object engine.
        busy_time, tbk_acc = slowed
        time_by_kind = {
            kind_names[c]: tbk_acc[c]
            for c in range(len(kind_names))
            if tbk_acc[c]
        }
    else:
        # Every task ran exactly once, so per-node and per-kind busy time
        # are plain weighted bincounts over the task table.  Summation
        # order differs from the object engine's event-order accumulation,
        # so these match it to float rounding (makespan/bytes/messages
        # stay exact).
        busy_time = np.bincount(
            cg.node, weights=durations, minlength=num_nodes
        ).tolist()
        counts = np.bincount(cg.kind_codes, minlength=len(kind_names))
        kt = np.bincount(cg.kind_codes, weights=durations,
                         minlength=len(kind_names))
        time_by_kind = {
            kind_names[c]: float(kt[c])
            for c in range(len(kind_names))
            if counts[c]
        }
    return finish(machine, now, cg.total_flops(), comm_bytes, comm_messages,
                  busy_time, time_by_kind, n_tasks, run.rec)
