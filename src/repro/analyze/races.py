"""Trace race & determinism detection over ``repro.obs`` traces.

Operates on a recorded trace (a :class:`repro.obs.Recorder`, possibly
reloaded from JSONL via :func:`repro.obs.read_jsonl`) together with the
:class:`~repro.graph.compiled.CompiledGraph` that names each task's
reads and write.  The runtimes are owner-computes with eager per-version
sends, so the invariant a trace can break is simple: a version becomes
available on a node when its producer ends there or when a message
carrying it is first delivered there, and every task that reads it and
every message that sends it from that node must start no earlier.
A local-runtime trace (``recorder.source == "local"``) is one address
space: a version is available on every node at its producer's end.

Rules:

* ``RACE-HB`` — a read or a send starts before its version is available
  on its node: it could observe a stale or half-written tile;
* ``RACE-MISSING`` — a read or a send of a version that no producer end
  and no delivery ever makes available on its node;
* ``RACE-ORDER`` — deliveries of increasing versions of one tile land
  at a node out of version order (the ack/retransmit reordering hazard
  of the distributed executor);
* ``RACE-RETRY`` — a retransmission fired for a message that had
  already been delivered (a lost ack): the duplicate can race the
  original (warning);
* ``RACE-DETERMINISM`` — two traces of the same seeded run diverge
  (:func:`compare_traces`).

Initial data at its home is always available, and so is a version at
its home whose producer the trace lacks (a crashed executor's salvaged
partial trace).  The analysis assumes per-version messages
(``aggregate=False``): aggregation coalesces several versions into one
recorded message, which intentionally hides payloads from the trace.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.compiled import CompiledGraph
from ..obs.events import Recorder, TaskEvent, TransferEvent
from .findings import Report, Severity

__all__ = ["detect_races", "compare_traces"]

#: Slack for comparing trace timestamps (simulated clocks are exact;
#: wall clocks of the real executors jitter below this).
EPS = 1e-9

MAX_FINDINGS_PER_RULE = 20


def _data_id_of_key(cg: CompiledGraph) -> dict[object, int]:
    """Map a trace transfer key (DataKey or raw id) to the data id."""
    if cg.data_keys is None:
        return {}
    return {k: i for i, k in enumerate(cg.data_keys)}


def _key_to_id(key: object, table: dict[object, int]) -> Optional[int]:
    if isinstance(key, (int, np.integer)):
        return int(key)
    return table.get(key)


def _earliest(times: dict[tuple[int, int], float], slot: tuple[int, int],
              t: float) -> None:
    if t < times.get(slot, float("inf")):
        times[slot] = t


def detect_races(
    recorder: Recorder,
    cg: CompiledGraph,
    name: str = "trace",
) -> Report:
    """Check every read and send of one trace against when its version
    became available on that node."""
    rep = Report()
    rep.note_pass("races", len(recorder.task_events))
    traced = {e.task_id for e in recorder.task_events}
    key_table = _data_id_of_key(cg)
    local = recorder.source == "local"
    read_ptr, read_ids, write_id = cg.read_ptr, cg.read_ids, cg.write_id
    transfers = [(_key_to_id(e.key, key_table), e)
                 for e in recorder.transfer_events]

    # ---- availability: (data id, node) -> earliest time ----------------
    # A local trace keys every version on node -1: one address space.
    delivered: dict[tuple[int, int], float] = {}
    for d, e in transfers:
        if d is not None:
            _earliest(delivered, (d, e.dst), e.delivered)
    avail = dict(delivered)
    for task in recorder.task_events:
        t = task.task_id
        if 0 <= t < cg.n_tasks and write_id[t] >= 0:
            _earliest(avail, (int(write_id[t]), -1 if local else task.node),
                      task.end)

    counts: dict[str, int] = {}

    def flag(rule: str, message: str, location: str, hint: str,
             severity: Severity = Severity.ERROR) -> None:
        counts[rule] = counts.get(rule, 0) + 1
        if counts[rule] <= MAX_FINDINGS_PER_RULE:
            rep.add(rule, severity, message, location, hint)

    def check(d: int, node: int, at: float, what: str,
              location: str) -> None:
        when = avail.get((d, -1 if local else node))
        if when is None:
            p = int(cg.data_producer[d])
            if (local or int(cg.data_source_node[d]) == node) \
                    and (p < 0 or p not in traced):
                return  # initial data at home, or a salvaged partial trace
            flag("RACE-MISSING",
                 f"{what} data id {d} on node {node}, but no event makes "
                 "it available there",
                 location,
                 "a producing task or a delivering transfer must precede "
                 "every read and every relay")
        elif when > at + EPS:
            flag("RACE-HB",
                 f"{what} data id {d} on node {node} at {at:.6g}, but it "
                 f"only becomes available there at {when:.6g}",
                 location,
                 "the access can observe a stale or half-written tile")

    for task in recorder.task_events:
        t = task.task_id
        if 0 <= t < cg.n_tasks:
            for r in read_ids[read_ptr[t]:read_ptr[t + 1]]:
                check(int(r), task.node, task.start, f"task {t} reads",
                      f"{name}:task {t}")
    for d, e in transfers:
        if d is not None:
            check(d, e.src, e.started, f"a message to node {e.dst} sends",
                  f"{name}:transfer {e.src}->{e.dst}")

    # ---- RACE-ORDER: version-order inversions at a destination -----------
    if cg.data_keys is not None:
        by_tile: dict[tuple[object, int], list[tuple[float, int]]] = {}
        for d, e in transfers:
            if d is None:
                continue
            k = cg.data_keys[d]
            by_tile.setdefault(
                ((k.name, k.i, k.j, k.part), e.dst), []
            ).append((e.delivered, k.ver))
        for (tile, dst), deliveries in sorted(
            by_tile.items(), key=lambda kv: str(kv[0])
        ):
            deliveries.sort()
            vers = [v for _, v in deliveries]
            for a, b in zip(vers, vers[1:]):
                if b < a:
                    flag("RACE-ORDER",
                         f"node {dst} receives tile {tile} version {b} "
                         f"after version {a}: deliveries arrived out of "
                         "version order",
                         f"{name}:tile {tile}",
                         "a retransmitted or reordered message can "
                         "overwrite newer data in place")

    # ---- RACE-RETRY: retransmission of an already-delivered message ------
    for f in recorder.fault_events:
        if f.op != "retry":
            continue
        d = _key_to_id(f.key, key_table)
        if d is None:
            continue
        got = delivered.get((d, f.dst))
        if got is not None and got < f.time - EPS:
            flag("RACE-RETRY",
                 f"data id {d} was retransmitted to node {f.dst} at "
                 f"{f.time:.6g} although a copy was delivered at "
                 f"{got:.6g} (lost ack?)",
                 f"{name}:transfer {f.src}->{f.dst}",
                 "the duplicate races the original; receivers must "
                 "deduplicate by version",
                 Severity.WARNING)

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
