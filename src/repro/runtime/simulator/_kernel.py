"""Flat-array transcription of the fast engine's lean event loop.

:func:`serve_loop` is the ready-pop -> launch -> delivery-decrement cycle
of :func:`repro.runtime.simulator.fast_engine.simulate_compiled` written
in the numba-compatible subset of Python: module-level functions over
numpy arrays and scalars only — no dicts, closures, tuples-in-heaps or
Python object allocation anywhere in the loop.  The same source runs two
ways: compiled with numba (lazily, cached per process — what
``simulate_compiled`` uses when numba is importable and the run is
eligible), or uncompiled — slow, but it is how the suite pins the
kernel's event ordering bit-for-bit against the numpy loop on machines
without numba (``fast_engine._kernel_loop(run, compiled=False)``).

The two steps the event kinds share are each written once:
:func:`_task_ready` (the numpy loop's ``enqueue_ready``) and
:func:`_serve` (``NetworkSim._serve`` plus ``launch``).  Scalars cannot be
passed by reference, so both take the counters they advance and return them.

The transcription covers the lean configuration only (direct broadcast,
no trace/synchronized/faults/aggregation/custom queue); anything else
stays on the numpy path.  Routed topologies and heterogeneous nodes ARE
covered: per-node core counts arrive as an array, and with ``topo_on``
set each quantum walks its pair's pre-gathered route (per-link occupancy,
switch backplane contention) with the exact float operations of
``NetworkSim._serve`` — fault hooks stay excluded, so the walk skips the
wire-factor branch the shared code guards with ``is not None``.  Event
ordering is preserved by construction:
the event heap is keyed (time, push-sequence) and every push increments
the sequence counter at the same program point as the numpy path, so the
two runs pop identical event streams and produce identical makespans,
byte and message counts (asserted in ``tests/test_compiled_engine.py``).

Heaps live in preallocated arenas — per-node ready heaps sized by task
placement counts, per-source network heaps by pair source counts, the
event heap by its structural bound (one completion per occupied core,
one egress event per busy source, one delivery per remote pair) — so the
loop never allocates.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

__all__ = ["serve_loop", "jit_serve_loop", "numba_available"]


def _ev_push(ev_t, ev_s, ev_k, ev_p, n, t, s, k, p):
    """Push (t, s, k, p) onto the (time, seq)-keyed event heap."""
    i = n
    while i > 0:
        par = (i - 1) >> 1
        pt = ev_t[par]
        if pt < t or (pt == t and ev_s[par] < s):
            break
        ev_t[i] = pt
        ev_s[i] = ev_s[par]
        ev_k[i] = ev_k[par]
        ev_p[i] = ev_p[par]
        i = par
    ev_t[i] = t
    ev_s[i] = s
    ev_k[i] = k
    ev_p[i] = p
    return n + 1


def _ev_siftdown(ev_t, ev_s, ev_k, ev_p, n):
    """Restore the heap after the root was replaced by the last entry."""
    i = 0
    t = ev_t[0]
    s = ev_s[0]
    k = ev_k[0]
    p = ev_p[0]
    while True:
        c = 2 * i + 1
        if c >= n:
            break
        r = c + 1
        if r < n and (
            ev_t[r] < ev_t[c] or (ev_t[r] == ev_t[c] and ev_s[r] < ev_s[c])
        ):
            c = r
        if ev_t[c] < t or (ev_t[c] == t and ev_s[c] < s):
            ev_t[i] = ev_t[c]
            ev_s[i] = ev_s[c]
            ev_k[i] = ev_k[c]
            ev_p[i] = ev_p[c]
            i = c
        else:
            break
    ev_t[i] = t
    ev_s[i] = s
    ev_k[i] = k
    ev_p[i] = p
    return i


def _arena_push(kprio, kseq, kval, base, n, prio, s, v):
    """Push onto one (negprio, seq)-keyed heap living at arena offset."""
    i = n
    while i > 0:
        par = (i - 1) >> 1
        pp = kprio[base + par]
        if pp < prio or (pp == prio and kseq[base + par] < s):
            break
        kprio[base + i] = pp
        kseq[base + i] = kseq[base + par]
        kval[base + i] = kval[base + par]
        i = par
    kprio[base + i] = prio
    kseq[base + i] = s
    kval[base + i] = v
    return n + 1


def _arena_pop(kprio, kseq, kval, base, n):
    """Pop the min entry; returns (value, new length)."""
    v0 = kval[base]
    last = n - 1
    if last > 0:
        prio = kprio[base + last]
        s = kseq[base + last]
        v = kval[base + last]
        i = 0
        while True:
            c = 2 * i + 1
            if c >= last:
                break
            r = c + 1
            if r < last and (
                kprio[base + r] < kprio[base + c]
                or (kprio[base + r] == kprio[base + c]
                    and kseq[base + r] < kseq[base + c])
            ):
                c = r
            if kprio[base + c] < prio or (
                kprio[base + c] == prio and kseq[base + c] < s
            ):
                kprio[base + i] = kprio[base + c]
                kseq[base + i] = kseq[base + c]
                kval[base + i] = kval[base + c]
                i = c
            else:
                break
        kprio[base + i] = prio
        kseq[base + i] = s
        kval[base + i] = v
    return v0, last


def _task_ready(
    t, time, node, dur, negprio, free,
    ev_t, ev_s, ev_k, ev_p, ev_n, seq,
    rq_prio, rq_seq, rq_task, rq_base, rq_n, rdy_seq,
):
    """Task ``t`` became ready at ``time``: start it or queue it.

    Returns the advanced ``(ev_n, seq, rdy_seq)``.
    """
    n = node[t]
    if free[n] > 0:
        free[n] -= 1
        seq += 1
        ev_n = _ev_push(ev_t, ev_s, ev_k, ev_p, ev_n,
                        time + dur[t], seq, 0, t)
    else:
        rdy_seq += 1
        rq_n[n] = _arena_push(rq_prio, rq_seq, rq_task, rq_base[n],
                              rq_n[n], negprio[t], rdy_seq, t)
    return ev_n, seq, rdy_seq


def _serve(
    src, now, pair_dst, pair_prio, quantum, bandwidth, latency,
    topo_on, tp_lat, tp_ptr, tp_eid, edge_bw, edge_sw, sw_bw,
    link_free, switch_free, ingress_free, egress_busy,
    tr_remaining, tr_started, tr_end,
    nq_prio, nq_seq, nq_pair, nq_base, nq_n, net_seq,
    ev_t, ev_s, ev_k, ev_p, ev_n, seq,
):
    """Serve one quantum of ``src``'s most urgent pending message at ``now``
    (or mark its egress channel idle), and push the resulting events.

    Returns the advanced ``(ev_n, seq, net_seq)``.
    """
    if nq_n[src] == 0:
        egress_busy[src] = 0
        return ev_n, seq, net_seq
    p, nq_n[src] = _arena_pop(nq_prio, nq_seq, nq_pair,
                              nq_base[src], nq_n[src])
    remaining = tr_remaining[p]
    size = quantum if quantum < remaining else remaining
    remaining -= size
    tr_remaining[p] = remaining
    dstn = pair_dst[p]
    if topo_on == 0:
        wire = size / bandwidth
        occupancy = wire if tr_started[p] == 1 else wire + latency
        tr_started[p] = 1
        egress_done = now + occupancy
        ingress = ingress_free[dstn] + wire
        delivery = egress_done if egress_done > ingress else ingress
    else:
        # Store-and-forward walk over the pair's route — the
        # float-for-float transcription of NetworkSim._serve's topology
        # branch (no fault hook: such runs never reach the kernel).
        q0 = tp_ptr[p]
        q1 = tp_ptr[p + 1]
        wire = size / edge_bw[tp_eid[q0]]
        occupancy = wire if tr_started[p] == 1 else wire + tp_lat[p]
        tr_started[p] = 1
        egress_done = now + occupancy
        t_ = egress_done
        last_wire = wire
        if q1 - q0 > 1:
            for qk in range(q0 + 1, q1):
                e = tp_eid[qk]
                s_ = edge_sw[e]
                if s_ >= 0:
                    sbw = sw_bw[s_]
                    if sbw != np.inf:
                        sf = switch_free[s_]
                        t_ = (t_ if t_ > sf else sf) + size / sbw
                        switch_free[s_] = t_
                hw = size / edge_bw[e]
                lf = link_free[e]
                t_ = (t_ if t_ > lf else lf) + hw
                link_free[e] = t_
                last_wire = hw
        ingress = ingress_free[dstn] + last_wire
        delivery = t_ if t_ > ingress else ingress
    ingress_free[dstn] = delivery
    egress_busy[src] = 1
    if remaining:
        net_seq += 1
        nq_n[src] = _arena_push(nq_prio, nq_seq, nq_pair, nq_base[src],
                                nq_n[src], -pair_prio[p], net_seq, p)
    else:
        tr_end[p] = delivery
    seq += 1
    ev_n = _ev_push(ev_t, ev_s, ev_k, ev_p, ev_n, egress_done, seq, 1, src)
    if not remaining:
        seq += 1
        ev_n = _ev_push(ev_t, ev_s, ev_k, ev_p, ev_n, delivery, seq, 2, p)
    return ev_n, seq, net_seq


def serve_loop(
    node,            # int32[n_tasks] task placement
    dur,             # float64[n_tasks] task durations
    negprio,         # float64[n_tasks] ready-queue keys (-priority)
    write_id,        # int32[n_tasks] output data id, -1 for none
    missing,         # int32[n_tasks] mutated in place
    lc_ptr,          # int64[n_data + 1] local-consumer CSR
    lc_ids,          # int32[]
    kd_ptr,          # int64[n_data + 1] remote-pair CSR
    pair_dst,        # int32[n_pairs]
    pair_prio,       # float64[n_pairs]
    pair_nbytes,     # int64[n_pairs]
    pair_src,        # int32[n_pairs]
    rn_start,        # int64[n_pairs]
    rn_count,        # int64[n_pairs]
    rn_ids,          # int32[]
    init_pairs,      # int64[] pairs of misplaced initial data, kick order
    num_nodes,       # int
    cores,           # int64[num_nodes] workers per node
    quantum,         # int (bytes)
    bandwidth,       # float (scalar clique model, ignored when topo_on)
    latency,         # float (scalar clique model, ignored when topo_on)
    topo_on,         # int: 1 = walk routed topology, 0 = scalar model
    tp_lat,          # float64[n_pairs] per-pair route latency
    tp_ptr,          # int64[n_pairs + 1] per-pair route CSR
    tp_eid,          # int64[] directed-edge ids along each pair's route
    edge_bw,         # float64[n_edges] per-directed-edge bandwidth
    edge_sw,         # int64[n_edges] switch at each edge's source, -1 none
    sw_bw,           # float64[n_switches] backplane bandwidth (inf = none)
):
    """Run the lean event loop; returns the aggregate counters.

    Returns ``(makespan, total_bytes, total_messages, queued)`` where
    ``queued`` is the number of tasks still sitting in ready queues at
    drain (0 on a successful run).  ``missing`` is decremented in place;
    the caller derives the executed-task count from it.
    """
    n_tasks = node.shape[0]
    n_pairs = pair_dst.shape[0]

    # --- arenas -------------------------------------------------------------
    ev_cap = num_nodes + n_pairs + 8
    for n in range(num_nodes):
        ev_cap += cores[n]
    ev_t = np.empty(ev_cap, dtype=np.float64)
    ev_s = np.empty(ev_cap, dtype=np.int64)
    ev_k = np.empty(ev_cap, dtype=np.int8)
    ev_p = np.empty(ev_cap, dtype=np.int64)
    ev_n = 0

    rq_base = np.zeros(num_nodes + 1, dtype=np.int64)
    for t in range(n_tasks):
        rq_base[node[t] + 1] += 1
    for n in range(num_nodes):
        rq_base[n + 1] += rq_base[n]
    rq_prio = np.empty(n_tasks, dtype=np.float64)
    rq_seq = np.empty(n_tasks, dtype=np.int64)
    rq_task = np.empty(n_tasks, dtype=np.int32)
    rq_n = np.zeros(num_nodes, dtype=np.int64)

    nq_base = np.zeros(num_nodes + 1, dtype=np.int64)
    for p in range(n_pairs):
        nq_base[pair_src[p] + 1] += 1
    for n in range(num_nodes):
        nq_base[n + 1] += nq_base[n]
    nq_prio = np.empty(n_pairs, dtype=np.float64)
    nq_seq = np.empty(n_pairs, dtype=np.int64)
    nq_pair = np.empty(n_pairs, dtype=np.int32)
    nq_n = np.zeros(num_nodes, dtype=np.int64)

    tr_remaining = pair_nbytes.copy()
    tr_started = np.zeros(n_pairs, dtype=np.uint8)
    tr_end = np.full(n_pairs, -1.0, dtype=np.float64)

    free = cores.copy()
    egress_busy = np.zeros(num_nodes, dtype=np.uint8)
    ingress_free = np.zeros(num_nodes, dtype=np.float64)
    # Per-run occupancy state of the routed topology (empty when scalar).
    link_free = np.zeros(edge_bw.shape[0], dtype=np.float64)
    switch_free = np.zeros(sw_bw.shape[0], dtype=np.float64)

    seq = 0
    net_seq = 0
    rdy_seq = 0
    total_bytes = 0
    total_messages = 0
    now = 0.0

    # --- kick off: source tasks ascending, then misplaced initial data ------
    for t in range(n_tasks):
        if missing[t] == 0:
            ev_n, seq, rdy_seq = _task_ready(
                t, now, node, dur, negprio, free,
                ev_t, ev_s, ev_k, ev_p, ev_n, seq,
                rq_prio, rq_seq, rq_task, rq_base, rq_n, rdy_seq)
    for ip in range(init_pairs.shape[0]):
        p = init_pairs[ip]
        src = pair_src[p]
        total_bytes += pair_nbytes[p]
        total_messages += 1
        net_seq += 1
        nq_n[src] = _arena_push(nq_prio, nq_seq, nq_pair, nq_base[src],
                                nq_n[src], -pair_prio[p], net_seq, p)
        if egress_busy[src] == 0:
            ev_n, seq, net_seq = _serve(
                src, now, pair_dst, pair_prio, quantum, bandwidth, latency,
                topo_on, tp_lat, tp_ptr, tp_eid, edge_bw, edge_sw, sw_bw,
                link_free, switch_free, ingress_free, egress_busy,
                tr_remaining, tr_started, tr_end,
                nq_prio, nq_seq, nq_pair, nq_base, nq_n, net_seq,
                ev_t, ev_s, ev_k, ev_p, ev_n, seq)

    # --- event loop ---------------------------------------------------------
    while ev_n > 0:
        now = ev_t[0]
        kind = ev_k[0]
        payload = ev_p[0]
        ev_n -= 1
        if ev_n > 0:
            ev_t[0] = ev_t[ev_n]
            ev_s[0] = ev_s[ev_n]
            ev_k[0] = ev_k[ev_n]
            ev_p[0] = ev_p[ev_n]
            _ev_siftdown(ev_t, ev_s, ev_k, ev_p, ev_n)

        if kind == 0:  # task completion
            t = payload
            n = node[t]
            if rq_n[n] > 0:
                t2, rq_n[n] = _arena_pop(rq_prio, rq_seq, rq_task,
                                         rq_base[n], rq_n[n])
                seq += 1
                ev_n = _ev_push(ev_t, ev_s, ev_k, ev_p, ev_n,
                                now + dur[t2], seq, 0, t2)
            else:
                free[n] += 1
            d = write_id[t]
            if d >= 0:
                for li in range(lc_ptr[d], lc_ptr[d + 1]):
                    tid = lc_ids[li]
                    missing[tid] -= 1
                    if missing[tid] == 0:
                        ev_n, seq, rdy_seq = _task_ready(
                            tid, now, node, dur, negprio, free,
                            ev_t, ev_s, ev_k, ev_p, ev_n, seq,
                            rq_prio, rq_seq, rq_task, rq_base, rq_n, rdy_seq)
                p0 = kd_ptr[d]
                p1 = kd_ptr[d + 1]
                for p in range(p0, p1):  # request_transfers(d, n, now)
                    total_bytes += pair_nbytes[p]
                    total_messages += 1
                    net_seq += 1
                    nq_n[n] = _arena_push(nq_prio, nq_seq, nq_pair,
                                          nq_base[n], nq_n[n],
                                          -pair_prio[p], net_seq, p)
                    if egress_busy[n] == 0:
                        ev_n, seq, net_seq = _serve(
                            n, now, pair_dst, pair_prio, quantum, bandwidth,
                            latency, topo_on, tp_lat, tp_ptr, tp_eid, edge_bw,
                            edge_sw, sw_bw, link_free, switch_free,
                            ingress_free, egress_busy,
                            tr_remaining, tr_started, tr_end,
                            nq_prio, nq_seq, nq_pair, nq_base, nq_n, net_seq,
                            ev_t, ev_s, ev_k, ev_p, ev_n, seq)
        elif kind == 1:  # source egress channel freed
            ev_n, seq, net_seq = _serve(
                payload, now, pair_dst, pair_prio, quantum, bandwidth,
                latency, topo_on, tp_lat, tp_ptr, tp_eid, edge_bw, edge_sw,
                sw_bw, link_free, switch_free, ingress_free, egress_busy,
                tr_remaining, tr_started, tr_end,
                nq_prio, nq_seq, nq_pair, nq_base, nq_n, net_seq,
                ev_t, ev_s, ev_k, ev_p, ev_n, seq)
        else:  # kind == 2: transfer delivered at the destination
            p = payload
            end = tr_end[p]
            s0 = rn_start[p]
            for ri in range(s0, s0 + rn_count[p]):
                tid = rn_ids[ri]
                missing[tid] -= 1
                if missing[tid] == 0:
                    ev_n, seq, rdy_seq = _task_ready(
                        tid, end, node, dur, negprio, free,
                        ev_t, ev_s, ev_k, ev_p, ev_n, seq,
                        rq_prio, rq_seq, rq_task, rq_base, rq_n, rdy_seq)

    queued = 0
    for n in range(num_nodes):
        queued += rq_n[n]
    return now, total_bytes, total_messages, queued


_JIT: Optional[Any] = None


def numba_available() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def jit_serve_loop():
    """The numba-compiled :func:`serve_loop` (compiled once per process).

    Raises ``ImportError`` when numba is not installed; the engine only
    asks after :func:`numba_available` said yes.
    """
    global _JIT
    if _JIT is None:
        from numba import njit

        opts = dict(cache=True, nogil=True)
        # Rebind the helpers to their compiled dispatchers *permanently*:
        # numba resolves globals lazily at first call, so a save/restore
        # around njit(serve_loop) would hand it back the plain functions.
        # The interpreted serve_loop keeps working either way (dispatchers
        # are plain callables and compute the identical arithmetic).
        for name in ("_ev_push", "_ev_siftdown", "_arena_push", "_arena_pop",
                     "_task_ready", "_serve"):
            globals()[name] = njit(**opts)(globals()[name])
        _JIT = njit(**opts)(serve_loop)
    return _JIT
