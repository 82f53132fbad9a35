"""Dynamic ready-queue disciplines (the runtime half of a policy).

The engines drive a :class:`~repro.schedulers.base.ReadyQueue` with the
same update sequence on both planes, so any deterministic discipline
keeps the two-engine equality contract for free.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from .base import ReadyQueue

__all__ = ["PriorityQueues", "WorkStealingQueues"]


class PriorityQueues(ReadyQueue):
    """The native discipline: per node, highest priority first, FIFO
    among equals (StarPU's dynamic local scheduling).

    What a plan without a ``queue_factory`` gets.  The object engine and
    the model checker run this class; the compiled engine keeps its own
    bucket-queue implementation of the same order, which the equality
    suite checks against this one.
    """

    def __init__(self, num_nodes: int, cores: int) -> None:
        self._heaps: list[list[tuple[float, int, int]]] = [
            [] for _ in range(num_nodes)]
        self._seq = 0  # push order, the tie-break among equal priorities

    def push(self, node: int, task: int, priority: float) -> None:
        self._seq += 1
        heappush(self._heaps[node], (-priority, self._seq, task))

    def pop(self, node: int) -> Optional[int]:
        heap = self._heaps[node]
        return heappop(heap)[2] if heap else None

    def depth(self, node: int) -> int:
        return len(self._heaps[node])

    def total(self) -> int:
        return sum(len(h) for h in self._heaps)


class WorkStealingQueues(ReadyQueue):
    """Intra-node work stealing over per-core deques.

    Each node keeps ``cores`` deques; a ready task lands on the deque
    ``task_id % cores`` (a cheap deterministic spread that keeps sibling
    tasks — consecutive ids in the builders — on different cores).  A
    freed worker is modelled by a rotating per-node pointer: it pops
    **LIFO** from its own deque (hot caches, newest work), and when that
    deque is empty it steals **FIFO** from the longest sibling deque
    (oldest work first, the classic Cilk/StarPU ``ws`` discipline).
    Priorities are deliberately ignored — locality over urgency is
    exactly the trade-off this policy exists to measure against the
    critical-path family.

    Stealing is intra-node only: tasks never change nodes, so the
    communication pattern (and the analyze placement rule) is untouched.
    """

    def __init__(self, num_nodes: int, cores: int) -> None:
        self.cores = max(1, cores)
        self._deques: list[list[deque[int]]] = [
            [deque() for _ in range(self.cores)]
            for _ in range(num_nodes)
        ]
        self._next_core = [0] * num_nodes
        self._depth = [0] * num_nodes
        self._total = 0

    def push(self, node: int, task: int, priority: float) -> None:
        self._deques[node][task % self.cores].append(task)
        self._depth[node] += 1
        self._total += 1

    def pop(self, node: int) -> Optional[int]:
        if self._depth[node] == 0:
            return None
        deques = self._deques[node]
        core = self._next_core[node]
        self._next_core[node] = (core + 1) % self.cores
        own = deques[core]
        if own:
            task = own.pop()  # LIFO: newest local work
        else:
            # Steal from the longest sibling deque, FIFO end; ties break
            # to the lowest core index (determinism across engines).
            victim = max(range(self.cores), key=lambda c: len(deques[c]))
            task = deques[victim].popleft()
        self._depth[node] -= 1
        self._total -= 1
        return task

    def depth(self, node: int) -> int:
        return self._depth[node]

    def total(self) -> int:
        return self._total
