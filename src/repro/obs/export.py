"""Exporters for recorded traces: Chrome/Perfetto JSON and JSONL.

Two formats, two audiences:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format, loadable in `Perfetto <https://ui.perfetto.dev>`_
  or ``chrome://tracing``.  Each simulated/real node becomes one
  *process* track; its workers and its NIC become *thread* lanes inside
  it (concurrent slices are spread over lanes so nothing overlaps).
  Timestamps are microseconds, as the format requires.
* :func:`write_jsonl` / :func:`read_jsonl` — a compact one-event-per-line
  schema that round-trips losslessly: reading a file replays every event
  through a fresh :class:`~repro.obs.events.Recorder`, so the reloaded
  event lists *and* derived metrics equal the originals.

The field-by-field schema of both formats is documented in
``docs/observability.md``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from ..graph.task import DataKey
from .events import Recorder

__all__ = ["assign_lanes", "chrome_trace", "write_chrome_trace", "write_jsonl",
           "read_jsonl"]

#: JSONL schema version; bump on incompatible field changes.
JSONL_VERSION = 1

#: Thread-id bases inside each node's process track.
_TID_NIC = 1000
_TID_IO = 2000
_TID_CACHE = 2001
_TID_FAULT = 3000


# -- key (de)serialization ----------------------------------------------------


def _encode_key(key) -> object:
    """JSON-encode an event key, preserving DataKey/tuple structure."""
    if isinstance(key, DataKey):
        return {"tile": [key.name, key.i, key.j, key.ver, key.part]}
    if isinstance(key, tuple):
        return {"t": [_encode_key(k) for k in key]}
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    return str(key)


def _decode_key(obj) -> object:
    if isinstance(obj, dict):
        if "tile" in obj:
            name, i, j, ver, part = obj["tile"]
            return DataKey(name, i, j, ver, part)
        if "t" in obj:
            return tuple(_decode_key(k) for k in obj["t"])
    return obj


def _key_label(key) -> str:
    if isinstance(key, DataKey):
        return f"{key.name}[{key.i},{key.j}]v{key.ver}" + (
            f".{key.part}" if key.part else ""
        )
    return str(key)


# -- Chrome trace-event / Perfetto export -------------------------------------


def assign_lanes(spans: Sequence[tuple[float, float]]) -> list[int]:
    """Greedy interval-graph colouring: first free lane per span.

    ``spans`` are (start, end) pairs; the result maps each span to a lane
    such that spans sharing a lane never overlap — what the trace viewer
    needs to render concurrent slices side by side, and what the race
    detector takes as worker lanes (two tasks can only have run on one
    worker if their spans do not overlap).
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], spans[i][1]))
    lanes_end: list[float] = []
    out = [0] * len(spans)
    for i in order:
        start, end = spans[i]
        for lane, busy_until in enumerate(lanes_end):
            if busy_until <= start + 1e-15:
                lanes_end[lane] = end
                out[i] = lane
                break
        else:
            out[i] = len(lanes_end)
            lanes_end.append(end)
    return out


def _fault_node(e) -> int:
    """Track a fault event lands on: the affected node, else the source."""
    if e.node >= 0:
        return e.node
    if e.src >= 0:
        return e.src
    return 0


def chrome_trace(recorder: Recorder) -> dict:
    """Render a recorder as a Chrome trace-event JSON document (a dict)."""
    events: list[dict] = []
    nodes = sorted(
        {e.node for e in recorder.task_events}
        | {e.src for e in recorder.transfer_events}
        | {e.dst for e in recorder.transfer_events}
        | {_fault_node(e) for e in recorder.fault_events}
    )
    for node in nodes:
        events.append({"ph": "M", "pid": node, "name": "process_name",
                       "args": {"name": f"node {node}"}})
        events.append({"ph": "M", "pid": node, "name": "process_sort_index",
                       "args": {"sort_index": node}})

    # Task slices: one worker lane per concurrently-running task.
    by_node: dict[int, list] = {}
    for e in recorder.task_events:
        by_node.setdefault(e.node, []).append(e)
    for node, evs in by_node.items():
        lanes = assign_lanes([(e.start, e.end) for e in evs])
        for lane in range(max(lanes) + 1 if lanes else 0):
            events.append({"ph": "M", "pid": node, "tid": lane,
                           "name": "thread_name",
                           "args": {"name": f"worker {lane}"}})
        for e, lane in zip(evs, lanes):
            events.append({
                "ph": "X", "pid": node, "tid": lane, "cat": "task",
                "name": e.kind, "ts": e.start * 1e6,
                "dur": (e.end - e.start) * 1e6,
                "args": {"task_id": e.task_id, "flops": e.flops,
                         "wait_us": (e.start - e.ready) * 1e6},
            })

    # Transfer slices live on the *source* node's NIC lanes, spanning
    # first-push to delivery.
    by_src: dict[int, list] = {}
    for e in recorder.transfer_events:
        by_src.setdefault(e.src, []).append(e)
    for src, evs in by_src.items():
        lanes = assign_lanes([(e.started, max(e.delivered, e.started)) for e in evs])
        for lane in range(max(lanes) + 1 if lanes else 0):
            events.append({"ph": "M", "pid": src, "tid": _TID_NIC + lane,
                           "name": "thread_name",
                           "args": {"name": f"nic-out {lane}"}})
        for e, lane in zip(evs, lanes):
            events.append({
                "ph": "X", "pid": src, "tid": _TID_NIC + lane, "cat": "transfer",
                "name": f"send {_key_label(e.key)} -> n{e.dst}",
                "ts": e.started * 1e6,
                "dur": (e.delivered - e.started) * 1e6,
                "args": {"src": e.src, "dst": e.dst, "nbytes": e.nbytes,
                         "queue_wait_us": (e.started - e.submitted) * 1e6},
            })

    # IO / cache events are instants on node 0 (the out-of-core engine is
    # single-node).
    if recorder.io_events or recorder.cache_events:
        events.append({"ph": "M", "pid": 0, "tid": _TID_IO,
                       "name": "thread_name", "args": {"name": "io"}})
        events.append({"ph": "M", "pid": 0, "tid": _TID_CACHE,
                       "name": "thread_name", "args": {"name": "cache"}})
    for e in recorder.io_events:
        events.append({
            "ph": "i", "pid": 0, "tid": _TID_IO, "s": "t", "cat": "io",
            "name": f"{e.op} {_key_label(e.key)}", "ts": e.time * 1e6,
            "args": {"op": e.op, "nbytes": e.nbytes},
        })
    for e in recorder.cache_events:
        events.append({
            "ph": "i", "pid": 0, "tid": _TID_CACHE, "s": "t", "cat": "cache",
            "name": f"{e.op} {_key_label(e.key)}", "ts": e.time * 1e6,
            "args": {"op": e.op, "nbytes": e.nbytes, "dirty": e.dirty},
        })

    # Fault instants land on the affected node's track, one shared lane.
    fault_pids = {_fault_node(e) for e in recorder.fault_events}
    for pid in sorted(fault_pids):
        events.append({"ph": "M", "pid": pid, "tid": _TID_FAULT,
                       "name": "thread_name", "args": {"name": "faults"}})
    for e in recorder.fault_events:
        label = e.op if e.key is None else f"{e.op} {_key_label(e.key)}"
        events.append({
            "ph": "i", "pid": _fault_node(e), "tid": _TID_FAULT, "s": "t",
            "cat": "fault", "name": label, "ts": e.time * 1e6,
            "args": {"op": e.op, "node": e.node, "src": e.src, "dst": e.dst,
                     "detail": e.detail},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "source": recorder.source},
    }


def write_chrome_trace(recorder: Recorder, path) -> str:
    """Write the Perfetto-loadable JSON; returns the path written."""
    doc = chrome_trace(recorder)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


# -- JSONL round-trip ---------------------------------------------------------


def write_jsonl(recorder: Recorder, path) -> str:
    """Write one JSON object per line: a header, then every event."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "header", "version": JSONL_VERSION,
                             "source": recorder.source}) + "\n")
        for e in recorder.task_events:
            rec = {"type": "task"}
            rec.update(e._asdict())
            fh.write(json.dumps(rec) + "\n")
        for e in recorder.transfer_events:
            rec = {"type": "transfer"}
            rec.update(e._asdict())
            rec["key"] = _encode_key(e.key)
            fh.write(json.dumps(rec) + "\n")
        for e in recorder.io_events:
            rec = {"type": "io"}
            rec.update(e._asdict())
            rec["key"] = _encode_key(e.key)
            fh.write(json.dumps(rec) + "\n")
        for e in recorder.cache_events:
            rec = {"type": "cache"}
            rec.update(e._asdict())
            rec["key"] = _encode_key(e.key)
            fh.write(json.dumps(rec) + "\n")
        for e in recorder.fault_events:
            rec = {"type": "fault"}
            rec.update(e._asdict())
            rec["key"] = _encode_key(e.key)
            fh.write(json.dumps(rec) + "\n")
    return str(path)


def read_jsonl(path) -> Recorder:
    """Load a JSONL trace, replaying events so metrics are rebuilt too."""
    rec = Recorder()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", None)
            if kind == "header":
                if obj.get("version") != JSONL_VERSION:
                    raise ValueError(
                        f"{path}: unsupported trace version {obj.get('version')}"
                    )
                rec.source = obj.get("source", "")
            elif kind == "task":
                rec.record_task(**obj)
            elif kind == "transfer":
                obj["key"] = _decode_key(obj["key"])
                rec.record_transfer(**obj)
            elif kind == "io":
                obj["key"] = _decode_key(obj["key"])
                rec.record_io(**obj)
            elif kind == "cache":
                obj["key"] = _decode_key(obj["key"])
                rec.record_cache(**obj)
            elif kind == "fault":
                obj["key"] = _decode_key(obj["key"])
                rec.record_fault(**obj)
            else:
                raise ValueError(f"{path}:{lineno}: unknown record type {kind!r}")
    return rec
