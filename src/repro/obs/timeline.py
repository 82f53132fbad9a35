"""A simulated run's timeline as logs, and the trace rebuilt from it.

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
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import attrgetter, itemgetter, not_
from typing import NamedTuple

import numpy as np

__all__ = ["new_log", "rebuild"]


#: a delivered message's transfer row, its head tile by id
_MESSAGE_ROW = attrgetter("key", "src", "dst", "nbytes", "submitted", "started", "end")


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
