"""Trace race & determinism detection over ``repro.obs`` traces.

Operates on a recorded trace (a :class:`repro.obs.Recorder`, possibly
reloaded from JSONL via :func:`repro.obs.read_jsonl`) together with the
:class:`~repro.graph.compiled.CompiledGraph` that names each task's
reads and write.  The detector rebuilds the *synchronization order* the
runtime actually provides and flags every conflicting tile access that
is not covered by it:

* a worker executes one task at a time, so tasks sharing a worker lane
  are program-ordered;
* a wire message orders its send (on the source) before its delivery
  (at the destination), and a node's ingress channel serializes the
  deliveries it accepts;
* a version becomes readable at a node when it is produced there or
  when a message carrying it is delivered there — *nothing else* orders
  a remote read against its producer.

Happens-before is computed with vector clocks over these lanes
(per-node worker lanes for tasks, one egress lane per source, one
ingress lane per destination), so the query "is access A ordered before
access B" is a clock comparison rather than a graph reachability walk.

Rules:

* ``RACE-HB`` — a conflicting pair (producer/reader of the same tile
  version) with no happens-before edge: the read could observe a stale
  or half-written tile under timing perturbation;
* ``RACE-MISSING`` — a remote read with no message delivering the
  version to the reading node at all;
* ``RACE-ORDER`` — deliveries of increasing versions of one tile land
  at a node out of version order (the ack/retransmit reordering hazard
  of the distributed executor);
* ``RACE-RETRY`` — a retransmission fired for a message that had
  already been delivered (a lost ack): the duplicate can race the
  original (warning);
* ``RACE-DETERMINISM`` — two traces of the same seeded run diverge
  (:func:`compare_traces`).

The analysis assumes per-version messages (``broadcast="direct"``,
``aggregate=False``): aggregation coalesces several versions into one
recorded message, which intentionally hides payloads from the trace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.compiled import CompiledGraph
from ..obs.events import Recorder, TaskEvent, TransferEvent
from ..obs.export import assign_lanes
from .findings import Report, Severity

__all__ = [
    "detect_races",
    "compare_traces",
    "VectorClock",
]

#: Slack for comparing trace timestamps (simulated clocks are exact;
#: wall clocks of the real executors jitter below this).
EPS = 1e-9

MAX_FINDINGS_PER_RULE = 20


class VectorClock:
    """A mutable vector clock over dynamically-registered lanes."""

    __slots__ = ("c",)

    def __init__(self, c: Optional[dict[int, int]] = None):
        self.c: dict[int, int] = dict(c) if c else {}

    def copy(self) -> "VectorClock":
        return VectorClock(self.c)

    def merge(self, other: "VectorClock") -> None:
        for lane, n in other.c.items():
            if n > self.c.get(lane, 0):
                self.c[lane] = n

    def tick(self, lane: int) -> None:
        self.c[lane] = self.c.get(lane, 0) + 1

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``other <= self`` componentwise (other HB self or ==)."""
        return all(self.c.get(lane, 0) >= n for lane, n in other.c.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VC({self.c})"


def _data_id_of_key(cg: CompiledGraph) -> dict[object, int]:
    """Map a trace transfer key (DataKey or raw id) to the data id."""
    if cg.data_keys is None:
        return {}
    return {k: i for i, k in enumerate(cg.data_keys)}


def _key_to_id(key: object, table: dict[object, int]) -> Optional[int]:
    if isinstance(key, (int, np.integer)):
        return int(key)
    return table.get(key)


def detect_races(
    recorder: Recorder,
    cg: CompiledGraph,
    name: str = "trace",
) -> Report:
    """Vector-clock happens-before analysis of one trace against its graph."""
    rep = Report()
    rep.note_pass("races", len(recorder.task_events))
    tasks: dict[int, TaskEvent] = {e.task_id: e for e in recorder.task_events}
    key_table = _data_id_of_key(cg)

    # ---- lane assignment --------------------------------------------------
    # Worker lanes per node for tasks; one egress lane per source node and
    # one ingress lane per destination node for transfers.  Lane ids are
    # disjoint integers.
    by_node: dict[int, list[TaskEvent]] = {}
    for e in recorder.task_events:
        by_node.setdefault(e.node, []).append(e)
    task_lane: dict[int, int] = {}
    next_lane = 0
    for node in sorted(by_node):
        evs = by_node[node]
        lanes = assign_lanes([(e.start, e.end) for e in evs])
        for e, lane in zip(evs, lanes):
            task_lane[e.task_id] = next_lane + lane
        next_lane += max(lanes) + 1 if lanes else 0
    all_nodes = set(by_node) | {e.src for e in recorder.transfer_events} \
        | {e.dst for e in recorder.transfer_events}
    egress_lane = {n: next_lane + i for i, n in enumerate(sorted(all_nodes))}
    next_lane += len(all_nodes)
    ingress_lane = {n: next_lane + i for i, n in enumerate(sorted(all_nodes))}

    # ---- atoms in time order ---------------------------------------------
    # (time, rank, tie, kind, payload): kind 0 = task (at start; its
    # clock ticks at end), 1 = send, 2 = recv.  Processing in time order
    # makes every well-formed HB edge point backwards in processing
    # order; an edge that would point forwards in time is itself a
    # violation.  Atoms sharing a timestamp order send -> recv -> task:
    # a zero-latency message must be sent before it lands, and a task
    # triggered by a delivery starts at exactly the delivery time.
    atoms: list[tuple[float, int, int, int, object]] = []
    tie = 0
    for e in recorder.task_events:
        tie += 1
        atoms.append((e.start, 2, tie, 0, e))
    for e in recorder.transfer_events:
        tie += 1
        atoms.append((e.started, 0, tie, 1, e))
        tie += 1
        atoms.append((e.delivered, 1, tie, 2, e))
    atoms.sort(key=lambda a: (a[0], a[1], a[2]))

    # Clocks at completion of each atom.
    task_clock: dict[int, VectorClock] = {}
    #: per (data id, node): clock of the event that made the version
    #: available there (producer completion or message delivery).
    avail: dict[tuple[int, int], VectorClock] = {}
    avail_time: dict[tuple[int, int], float] = {}
    #: per lane: clock of the last atom processed on it.
    lane_clock: dict[int, VectorClock] = {}
    #: per (data id, dst): delivery bookkeeping for RACE-ORDER / RETRY.
    delivered_at: dict[tuple[int, int], float] = {}
    #: send-side clock per transfer event (frozen dataclass — keyed by id).
    send_clock: dict[int, VectorClock] = {}

    n_init = cg.n_init
    read_ptr, read_ids = cg.read_ptr, cg.read_ids
    write_id = cg.write_id
    data_src = cg.data_source_node

    def lane_advance(lane: int, vc: VectorClock) -> VectorClock:
        prev = lane_clock.get(lane)
        if prev is not None:
            vc.merge(prev)
        vc.tick(lane)
        lane_clock[lane] = vc
        return vc

    hb_errors = 0
    missing = 0
    for _time, _rank, _tie, kind, payload in atoms:
        if kind == 0:
            e = payload  # TaskEvent
            t = e.task_id
            vc = VectorClock()
            if 0 <= t < cg.n_tasks:
                for d in read_ids[read_ptr[t]:read_ptr[t + 1]]:
                    d = int(d)
                    slot = (d, e.node)
                    got = avail.get(slot)
                    if got is None:
                        if d < n_init and int(data_src[d]) == e.node:
                            pass  # initial data, already home
                        elif d >= n_init and int(data_src[d]) == e.node \
                                and cg.data_producer[d] >= 0 \
                                and int(cg.data_producer[d]) not in tasks:
                            pass  # producer absent from trace (partial trace)
                        else:
                            missing += 1
                            if missing <= MAX_FINDINGS_PER_RULE:
                                rep.add(
                                    "RACE-MISSING", Severity.ERROR,
                                    f"task {t} on node {e.node} reads data "
                                    f"id {d} but no event makes it "
                                    "available there",
                                    f"{name}:task {t}",
                                    "a producing task or a delivering "
                                    "transfer must precede the read",
                                )
                        continue
                    if avail_time[slot] > e.start + EPS:
                        hb_errors += 1
                        if hb_errors <= MAX_FINDINGS_PER_RULE:
                            rep.add(
                                "RACE-HB", Severity.ERROR,
                                f"task {t} on node {e.node} starts at "
                                f"{e.start:.6g} but data id {d} only "
                                f"becomes available there at "
                                f"{avail_time[slot]:.6g}",
                                f"{name}:task {t}",
                                "no happens-before edge orders the "
                                "producer before this read",
                            )
                        continue
                    vc.merge(got)
            vc = lane_advance(task_lane.get(t, -1), vc)
            task_clock[t] = vc
            # The version this task writes becomes available locally.
            if 0 <= t < cg.n_tasks and write_id[t] >= 0:
                slot = (int(write_id[t]), e.node)
                avail[slot] = vc
                avail_time[slot] = e.end
        elif kind == 1:
            e = payload  # TransferEvent send side
            d = _key_to_id(e.key, key_table)
            vc = VectorClock()
            if d is not None:
                slot = (d, e.src)
                got = avail.get(slot)
                if got is not None:
                    if avail_time[slot] > e.started + EPS:
                        hb_errors += 1
                        if hb_errors <= MAX_FINDINGS_PER_RULE:
                            rep.add(
                                "RACE-HB", Severity.ERROR,
                                f"message for data id {d} leaves node "
                                f"{e.src} at {e.started:.6g} before the "
                                f"version exists there "
                                f"(at {avail_time[slot]:.6g})",
                                f"{name}:transfer {e.src}->{e.dst}",
                            )
                    else:
                        vc.merge(got)
                elif not (d < n_init and int(data_src[d]) == e.src):
                    # Zero-duration producer whose task atom (ranked
                    # after sends at equal time) has not run yet.
                    p = int(cg.data_producer[d]) if d < cg.n_data else -1
                    pe = tasks.get(p)
                    if pe is not None and pe.node == e.src \
                            and pe.end <= e.started + EPS:
                        send_clock[id(e)] = lane_advance(
                            egress_lane.get(e.src, -2), vc)
                        continue
                    missing += 1
                    if missing <= MAX_FINDINGS_PER_RULE:
                        rep.add(
                            "RACE-MISSING", Severity.ERROR,
                            f"node {e.src} sends data id {d} it never "
                            "produced or received",
                            f"{name}:transfer {e.src}->{e.dst}",
                            "forwarders must receive a tile before "
                            "relaying it",
                        )
            send_clock[id(e)] = lane_advance(egress_lane.get(e.src, -2), vc)
        else:
            e = payload  # TransferEvent delivery side
            d = _key_to_id(e.key, key_table)
            vc = VectorClock()
            send_vc = send_clock.get(id(e))
            if send_vc is not None:
                vc.merge(send_vc)
            vc = lane_advance(ingress_lane.get(e.dst, -3), vc)
            if d is not None:
                slot = (d, e.dst)
                if slot not in avail or avail_time[slot] > e.delivered:
                    avail[slot] = vc
                    avail_time[slot] = e.delivered
                delivered_at[(d, e.dst)] = e.delivered

    # ---- RACE-HB, pass 2: clock check of every dependency edge -----------
    # The availability sweep above catches timestamp inversions; this
    # pass catches *ordering* gaps the clocks expose even when the
    # timestamps happen to be consistent (e.g. a same-node read whose
    # producer ran on an overlapping worker lane with no sync between).
    pairs_checked = 0
    for t, e in tasks.items():
        if not 0 <= t < cg.n_tasks:
            continue
        rvc = task_clock.get(t)
        if rvc is None:
            continue
        for d in read_ids[read_ptr[t]:read_ptr[t + 1]]:
            d = int(d)
            p = int(cg.data_producer[d])
            if p < 0 or p not in task_clock:
                continue
            pairs_checked += 1
            if not rvc.dominates(task_clock[p]):
                hb_errors += 1
                if hb_errors <= MAX_FINDINGS_PER_RULE:
                    rep.add(
                        "RACE-HB", Severity.ERROR,
                        f"no happens-before chain orders producer task {p} "
                        f"(node {tasks[p].node}) before consumer task {t} "
                        f"(node {e.node}) for data id {d}",
                        f"{name}:task {t}",
                        "the consumer can observe a half-written tile",
                    )

    # ---- RACE-ORDER: version-order inversions at a destination -----------
    if cg.data_keys is not None:
        by_tile: dict[tuple[object, int], list[tuple[float, int]]] = {}
        for e in recorder.transfer_events:
            d = _key_to_id(e.key, key_table)
            if d is None:
                continue
            k = cg.data_keys[d]
            by_tile.setdefault(
                ((k.name, k.i, k.j, k.part), e.dst), []
            ).append((e.delivered, k.ver))
        order_errors = 0
        for (tile, dst), deliveries in sorted(
            by_tile.items(), key=lambda kv: str(kv[0])
        ):
            deliveries.sort()
            vers = [v for _, v in deliveries]
            for a, b in zip(vers, vers[1:]):
                if b < a:
                    order_errors += 1
                    if order_errors <= MAX_FINDINGS_PER_RULE:
                        rep.add(
                            "RACE-ORDER", Severity.ERROR,
                            f"node {dst} receives tile {tile} version {b} "
                            f"after version {a}: deliveries arrived out "
                            "of version order",
                            f"{name}:tile {tile}",
                            "a retransmitted or reordered message can "
                            "overwrite newer data in place",
                        )

    # ---- RACE-RETRY: retransmission of an already-delivered message ------
    retry_warns = 0
    for f in recorder.fault_events:
        if f.op != "retry":
            continue
        d = _key_to_id(f.key, key_table)
        if d is None:
            continue
        got = delivered_at.get((d, f.dst))
        if got is not None and got < f.time - EPS:
            retry_warns += 1
            if retry_warns <= MAX_FINDINGS_PER_RULE:
                rep.add(
                    "RACE-RETRY", Severity.WARNING,
                    f"data id {d} was retransmitted to node {f.dst} at "
                    f"{f.time:.6g} although a copy was delivered at "
                    f"{got:.6g} (lost ack?)",
                    f"{name}:transfer {f.src}->{f.dst}",
                    "the duplicate races the original; receivers must "
                    "deduplicate by version",
                )

    return rep


def _task_sig(e: TaskEvent) -> tuple[int, str, int, float, float]:
    return (e.task_id, e.kind, e.node, round(e.start, 9), round(e.end, 9))


def _transfer_sig(e: TransferEvent) -> tuple[str, int, int, int, float]:
    return (str(e.key), e.src, e.dst, e.nbytes, round(e.delivered, 9))


def compare_traces(
    a: Recorder,
    b: Recorder,
    name: str = "trace",
    label_a: str = "A",
    label_b: str = "B",
) -> Report:
    """Determinism check: two traces of the same seeded run must agree."""
    rep = Report()
    rep.note_pass("determinism")

    ta = {e.task_id: e for e in a.task_events}
    tb = {e.task_id: e for e in b.task_events}
    only_a = sorted(set(ta) - set(tb))
    only_b = sorted(set(tb) - set(ta))
    for t in only_a[:MAX_FINDINGS_PER_RULE]:
        rep.add("RACE-DETERMINISM", Severity.ERROR,
                f"task {t} executed in {label_a} but not in {label_b}",
                f"{name}:task {t}")
    for t in only_b[:MAX_FINDINGS_PER_RULE]:
        rep.add("RACE-DETERMINISM", Severity.ERROR,
                f"task {t} executed in {label_b} but not in {label_a}",
                f"{name}:task {t}")
    diffs = 0
    for t in sorted(set(ta) & set(tb)):
        if _task_sig(ta[t]) != _task_sig(tb[t]):
            diffs += 1
            if diffs <= MAX_FINDINGS_PER_RULE:
                ea, eb = ta[t], tb[t]
                rep.add(
                    "RACE-DETERMINISM", Severity.ERROR,
                    f"task {t} diverges: {label_a} ran {ea.kind} on node "
                    f"{ea.node} [{ea.start:.6g}, {ea.end:.6g}], {label_b} "
                    f"ran {eb.kind} on node {eb.node} "
                    f"[{eb.start:.6g}, {eb.end:.6g}]",
                    f"{name}:task {t}",
                    "a seeded run must replay bit-identically",
                )
    sa = sorted(_transfer_sig(e) for e in a.transfer_events)
    sb = sorted(_transfer_sig(e) for e in b.transfer_events)
    if sa != sb:
        seen_b = {}
        for sig in sb:
            seen_b[sig] = seen_b.get(sig, 0) + 1
        shown = 0
        for sig in sa:
            if seen_b.get(sig, 0):
                seen_b[sig] -= 1
                continue
            shown += 1
            if shown <= MAX_FINDINGS_PER_RULE:
                key, src, dst, nbytes, delivered = sig
                rep.add(
                    "RACE-DETERMINISM", Severity.ERROR,
                    f"transfer {key} {src}->{dst} ({nbytes} B, delivered "
                    f"{delivered:.6g}) appears in {label_a} but not "
                    f"{label_b}",
                    f"{name}:transfer {src}->{dst}",
                )
        if not shown and len(sa) != len(sb):
            rep.add(
                "RACE-DETERMINISM", Severity.ERROR,
                f"{label_a} records {len(sa)} transfers, {label_b} "
                f"{len(sb)}",
                f"{name}:transfers",
            )
    return rep
