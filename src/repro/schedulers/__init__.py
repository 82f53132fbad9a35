"""Pluggable scheduling policies for the simulator engines.

``simulate(..., scheduler="heft-lookahead")`` /
``simulate_compiled(..., scheduler=...)`` accept a policy name from
:data:`POLICIES` (or a :class:`SchedulerInterface` instance); the
default ``"critical-path"`` policy reproduces the engines' historical
behaviour bit-exactly.  The sweep service exposes the same knob as the
``policy`` field of :class:`repro.service.JobSpec`.

See ``docs/schedulers.md`` for the interface contract and the policy
catalogue, and ``benchmarks/bench_scheduler_tournament.py`` for the
policy x distribution tournament.
"""

from __future__ import annotations

from typing import Union

from .base import PlanError, ReadyQueue, SchedulePlan, SchedulerInterface, check_plan
from .policies import (
    BytesWeightedCriticalPath,
    CommAvoidingReorder,
    CriticalPathOwnerComputes,
    LookaheadHEFT,
    SynchronizedForkJoin,
    WorkStealing,
)
from .queues import PriorityQueues, WorkStealingQueues
from .views import GraphView

__all__ = [
    "DEFAULT_POLICY",
    "POLICIES",
    "GraphView",
    "PlanError",
    "PriorityQueues",
    "ReadyQueue",
    "SchedulePlan",
    "SchedulerInterface",
    "WorkStealingQueues",
    "CriticalPathOwnerComputes",
    "BytesWeightedCriticalPath",
    "WorkStealing",
    "LookaheadHEFT",
    "CommAvoidingReorder",
    "SynchronizedForkJoin",
    "check_plan",
    "get_policy",
]

#: Registry of every policy, keyed by its ``name`` (= ``JobSpec.policy``).
POLICIES: dict[str, type[SchedulerInterface]] = {
    cls.name: cls
    for cls in (
        CriticalPathOwnerComputes,
        BytesWeightedCriticalPath,
        WorkStealing,
        LookaheadHEFT,
        CommAvoidingReorder,
        SynchronizedForkJoin,
    )
}

DEFAULT_POLICY = CriticalPathOwnerComputes.name


def get_policy(
    policy: Union[str, SchedulerInterface, None]
) -> SchedulerInterface:
    """Resolve a policy name (or pass an instance through).

    ``None`` resolves to the default policy.
    """
    if policy is None:
        return POLICIES[DEFAULT_POLICY]()
    if isinstance(policy, SchedulerInterface):
        return policy
    cls = POLICIES.get(policy)
    if cls is None:
        raise ValueError(
            f"unknown scheduler policy {policy!r}; "
            f"known: {', '.join(sorted(POLICIES))}"
        )
    return cls()
