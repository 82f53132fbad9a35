"""Scheduler interface: how a policy talks to the simulator engines.

Scheduling used to be baked into both engines as fixed critical-path
priorities + owner-computes placement.  This module extracts the policy
surface, estee-style: the scheduler observes the task graph and the
machine (through a :class:`~repro.schedulers.views.GraphView`) and
returns its decisions as a :class:`SchedulePlan` — priorities, placement overrides,
barrier mode, and optionally a dynamic ready-queue discipline that then
receives the runtime's task-ready / worker-free updates.

The contract both engines honour (see ``docs/schedulers.md``):

* ``plan()`` is called once per simulation, before any event runs, with
  a view of the *compiled* graph — the object engine lowers its
  ``TaskGraph`` first — so one policy implementation sees the same
  numbers, and yields the same plan, on both engines and the two-engine
  equality suite extends to every policy;
* every field of the returned plan defaults to "keep the engine's
  native behaviour", so the default policy
  (:class:`repro.schedulers.policies.CriticalPathOwnerComputes`) returns
  an empty plan and the engines run their pre-existing code paths
  unchanged, bit-exactly;
* the returned plan must pass :func:`check_plan` — full-length
  columns, nodes the machine has, and ``migrates = True`` declared by
  any policy whose ``assignment`` leaves the graph's owner-computes
  placement.  The engines raise what it raises; ``repro.analyze``
  reports it as MC-PLACE.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Optional, Union

import numpy as np
import numpy.typing as npt

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .views import GraphView

__all__ = [
    "PlanError",
    "ReadyQueue",
    "SchedulePlan",
    "SchedulerInterface",
    "check_plan",
]


class ReadyQueue(abc.ABC):
    """A pluggable per-node ready-queue discipline.

    This is the *dynamic* half of the scheduler interface.  The engines
    call :meth:`push` when a task becomes ready on a node with no free
    worker (each task at most once) and :meth:`pop` once per completion
    on that node — ``pop`` is their only dispatch call.  Of the two
    counts, :meth:`total` feeds the core's end-of-run accounting and
    :meth:`depth` the oracle's ``queue.depth.max`` trace gauge; neither
    decides what runs.  Both engines drive one instance with the
    identical call sequence, so a deterministic discipline preserves the
    two-engine equality contract.  ``repro.analyze.mc`` checks a
    discipline against exactly these calls (MC-*).

    A task that is ready while a worker is free never enters the queue
    (the engines start it immediately); the discipline only arbitrates
    backlog.
    """

    @abc.abstractmethod
    def push(self, node: int, task: int, priority: float) -> None:
        """Task ``task`` became ready on ``node`` (no worker free)."""

    @abc.abstractmethod
    def pop(self, node: int) -> Optional[int]:
        """A worker on ``node`` freed: the next task pushed for ``node``
        to run there, or None to idle the worker — which strands the
        queued tasks if no other worker of ``node`` asks again."""

    @abc.abstractmethod
    def depth(self, node: int) -> int:
        """Tasks pushed for ``node`` and not yet popped (trace gauge)."""

    @abc.abstractmethod
    def total(self) -> int:
        """Tasks pushed and not yet popped, all nodes (the core's
        end-of-run accounting)."""


@dataclass
class SchedulePlan:
    """A policy's decisions for one run; every default means "native".

    ``priorities`` — per-task ready-queue/network priorities; ``None``
    keeps the engine's own bottom-level critical-path computation.
    ``assignment`` — per-task execution node, overriding the graph's
    owner-computes placement (the producing node still *sends* from
    wherever the data now lives; the engines re-derive the communication
    pattern from the assignment).  Only policies with
    ``migrates = True`` may return one.
    ``synchronized`` — force fork-join iteration barriers.
    ``queue_factory`` — ``(num_nodes, cores) -> ReadyQueue`` for a
    custom dynamic discipline; ``None`` keeps the native per-node
    priority queues.
    """

    priorities: Optional[Sequence[float]] = None
    assignment: Optional[Sequence[int]] = None
    synchronized: bool = False
    queue_factory: Optional[Callable[[int, int], ReadyQueue]] = None

    def is_native(self) -> bool:
        """True when the plan changes nothing (the default policy)."""
        return (self.priorities is None and self.assignment is None
                and not self.synchronized and self.queue_factory is None)


class SchedulerInterface(abc.ABC):
    """One scheduling policy, usable by both simulator engines.

    Subclasses set ``name`` (the registry / ``JobSpec.policy`` string)
    and implement :meth:`plan`.  Policies must be deterministic, pure
    functions of the view: the sweep service memoizes results by spec,
    and the equality suite runs every policy on both engines.
    """

    #: registry key; also the ``JobSpec.policy`` value.
    name: ClassVar[str] = ""
    #: one-line description for catalogues and ``docs/schedulers.md``.
    description: ClassVar[str] = ""
    #: True when plan() may return a placement ``assignment`` that
    #: deviates from the graph's owner-computes placement
    #: (:func:`check_plan` enforces this declaration).
    migrates: ClassVar[bool] = False

    @abc.abstractmethod
    def plan(self, view: GraphView) -> SchedulePlan:
        """Decide priorities/placement/discipline for this run."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PlanError(ValueError):
    """A :class:`SchedulePlan` no engine will run.

    ``tasks`` holds the offending task ids (empty when a whole column is
    mis-sized) and ``hint`` the fix; the analyzers turn them into
    per-task findings, the engines just let the error propagate.
    """

    def __init__(self, message: str, hint: str,
                 tasks: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.hint = hint
        self.tasks = tasks


def check_plan(policy: SchedulerInterface, plan: SchedulePlan,
               placement: Union[Sequence[int], npt.NDArray[Any]],
               num_nodes: int) -> None:
    """Raise :class:`PlanError` unless ``plan`` can run on ``num_nodes``
    nodes over a graph whose owner-computes placement is ``placement``.

    The one statement of the plan contract: both engines and MC-PLACE
    call it and differ only in how they report the error.
    """
    n_tasks = len(placement)
    who = f"policy {policy.name!r}"
    for what, column in (("priorities", plan.priorities),
                         ("assignments", plan.assignment)):
        if column is not None and len(column) != n_tasks:
            raise PlanError(
                f"{who} returned {len(column)} {what} for {n_tasks} tasks",
                "a plan column must cover every task exactly once")
    if plan.assignment is None:
        return
    assignment = np.asarray(plan.assignment)
    outside = np.flatnonzero((assignment < 0) | (assignment >= num_nodes))
    if outside.size:
        raise PlanError(
            f"{who} assigned {outside.size} task(s) outside nodes "
            f"[0, {num_nodes})",
            "an assignment must name a node the machine has",
            outside.tolist())
    if not policy.migrates:
        moved = np.flatnonzero(assignment != np.asarray(placement))
        if moved.size:
            raise PlanError(
                f"{who} moves {moved.size} task(s) off their data's node "
                "without declaring migrates = True",
                "declare migrates = True (and accept the extra input "
                "transfers) or return assignment=None",
                moved.tolist())
