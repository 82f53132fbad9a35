"""The scheduler zoo (see ``docs/schedulers.md`` for the catalogue).

Every policy is a pure, deterministic function of the
:class:`~repro.schedulers.views.GraphView`.  Both engines hand it a view
of the same compiled columns, so each policy yields one plan per graph
and passes the object-vs-compiled equality suite.
"""

from __future__ import annotations

from .base import SchedulePlan, SchedulerInterface
from .queues import WorkStealingQueues
from .views import GraphView

__all__ = [
    "CriticalPathOwnerComputes",
    "BytesWeightedCriticalPath",
    "WorkStealing",
    "LookaheadHEFT",
    "CommAvoidingReorder",
    "SynchronizedForkJoin",
]


def _bottom_levels(view: GraphView, comm_weighted: bool) -> list[float]:
    """Duration-weighted longest path to a sink, per task.

    With ``comm_weighted`` the edge to a consumer on another node also
    pays one link traversal of the produced tile — the classical HEFT
    upward rank with actual (not averaged) placement.

    Task ids are a topological order (builder invariant), so one reverse
    sweep suffices.
    """
    dur = view.durations
    cons = view.consumers
    bl = [0.0] * view.n_tasks
    if comm_weighted:
        node = view.node
        out_bytes = view.out_bytes
    for t in range(view.n_tasks - 1, -1, -1):
        best = 0.0
        if comm_weighted:
            edge = view.comm_cost(out_bytes[t])
            home = node[t]
            for c in cons[t]:
                cost = bl[c] + (edge if node[c] != home else 0.0)
                if cost > best:
                    best = cost
        else:
            for c in cons[t]:
                if bl[c] > best:
                    best = bl[c]
        bl[t] = dur[t] + best
    return bl


class CriticalPathOwnerComputes(SchedulerInterface):
    """The default: what both engines have always done, untouched.

    Returns an empty plan, so the engines compute their native
    bottom-level critical-path priorities, keep owner-computes
    placement, and use their native per-node priority queues.  Runs
    under this policy are bit-exactly the pre-framework behaviour (the
    golden-makespan tests pin this).
    """

    name = "critical-path"
    description = "native bottom-level priorities + owner-computes (default)"

    def plan(self, view: GraphView) -> SchedulePlan:
        return SchedulePlan()


class BytesWeightedCriticalPath(SchedulerInterface):
    """Bottom levels that also charge cross-node edges one link traversal.

    The native rank treats a GEMM feeding a remote consumer and a local
    one identically; weighting edges by tile bytes/bandwidth (+latency)
    pulls tasks whose outputs must travel forward in time, giving the
    network a head start on the critical path.
    """

    name = "bytes-critical-path"
    description = "critical path weighted by tile bytes on cross-node edges"

    def plan(self, view: GraphView) -> SchedulePlan:
        return SchedulePlan(priorities=_bottom_levels(view, comm_weighted=True))


class WorkStealing(SchedulerInterface):
    """Native priorities for the network; per-core deques + stealing
    inside each node (see :class:`WorkStealingQueues`) instead of the
    shared per-node priority queue."""

    name = "work-stealing"
    description = "intra-node LIFO deques with FIFO stealing"

    def plan(self, view: GraphView) -> SchedulePlan:
        return SchedulePlan(queue_factory=WorkStealingQueues)


class LookaheadHEFT(SchedulerInterface):
    """Static HEFT: rank tasks, then greedily map each to the node with
    the earliest finish time — a placement that may *migrate* tasks off
    their owner-computes node (``migrates = True``), trading extra input
    transfers for load balance.

    The estimator is deliberately simple (no insertion scheduling, one
    free-time slot per core, a link-cost model identical to
    :meth:`GraphView.comm_cost`); it is a lookahead heuristic feeding
    the dynamic engines, not an exact simulator of them.
    """

    name = "heft-lookahead"
    description = "HEFT upward rank + earliest-finish-time placement"
    migrates = True

    def plan(self, view: GraphView) -> SchedulePlan:
        n = view.n_tasks
        rank = _bottom_levels(view, comm_weighted=True)
        dur = view.durations
        inputs = view.inputs
        num_nodes = view.num_nodes
        # Descending rank is a topological order (rank strictly exceeds
        # any consumer's); ties break on task id for determinism.
        order = sorted(range(n), key=lambda t: (-rank[t], t))
        core_free = [[0.0] * view.cores for _ in range(num_nodes)]
        finish = [0.0] * n
        placed = [0] * n
        for t in order:
            best_node = 0
            best_eft = float("inf")
            for cand in range(num_nodes):
                est = 0.0
                for pid, nbytes, src in inputs[t]:
                    if pid >= 0:
                        avail = finish[pid]
                        here = placed[pid]
                    else:
                        avail = 0.0
                        here = src
                    if here != cand:
                        avail += view.comm_cost(nbytes)
                    if avail > est:
                        est = avail
                free = min(core_free[cand])
                if free > est:
                    est = free
                eft = est + dur[t]
                if eft < best_eft:
                    best_eft = eft
                    best_node = cand
            placed[t] = best_node
            finish[t] = best_eft
            slots = core_free[best_node]
            slots[slots.index(min(slots))] = best_eft
        return SchedulePlan(priorities=rank, assignment=placed)


class CommAvoidingReorder(SchedulerInterface):
    """Delay cross-node GEMMs: same critical-path order, but trailing
    updates whose inputs crossed the network are demoted below every
    locally-fed task.  Local work then drains first, widening the window
    in which those transfers overlap with computation — the
    communication-avoiding reordering of Ballard et al. (arXiv
    0902.2537) applied as a priority transform rather than a loop
    restructuring.  Placement is untouched (``migrates`` stays False).
    """

    name = "comm-avoiding"
    description = "demote cross-node-input GEMMs below local work"

    def plan(self, view: GraphView) -> SchedulePlan:
        bl = _bottom_levels(view, comm_weighted=False)
        span = max(bl)
        kinds = view.kinds
        node = view.node
        inputs = view.inputs
        prio = list(bl)
        for t in range(view.n_tasks):
            if not kinds[t].startswith("GEMM"):
                continue
            home = node[t]
            if any(src != home for _pid, _nb, src in inputs[t]):
                # Subtracting the span keeps the demoted tasks' relative
                # order while ranking them under every undemoted task.
                prio[t] = bl[t] - span
        return SchedulePlan(priorities=prio)


class SynchronizedForkJoin(SchedulerInterface):
    """The classical fork-join MPI baseline, demoted to one policy among
    many: iteration ``k`` starts only after every task of ``k-1``
    finished (the engines' ``synchronized`` mode), with native
    priorities inside each phase."""

    name = "fork-join"
    description = "iteration barriers (synchronized MPI baseline)"

    def plan(self, view: GraphView) -> SchedulePlan:
        return SchedulePlan(synchronized=True)
