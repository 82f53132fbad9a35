"""Pass 5: small-scope explicit-state model checker for scheduler policies.

Where the schedule verifier proves properties of one *static* plan and
the race detector checks one *recorded* interleaving, this pass checks
**all** interleavings: it explores every reachable state of the untimed
scheduling semantics shared by both simulator engines — ready tasks
start immediately on a free worker, backlog waits in the policy's
:class:`~repro.schedulers.ReadyQueue`, a completion releases its
consumers and re-pops the freed worker — for every
:class:`~repro.schedulers.SchedulerInterface` policy against a matrix
of small compiled graphs (N <= 8, P <= 4, clique + chain + grid
interconnects).  Task durations are abstracted away, so the only
nondeterminism is *which running task completes next*; exhausting those
choices covers every schedule either engine (or a real runtime with
jittery kernels) can produce.

Properties proved per policy, for all interleavings:

* ``MC-DEADLOCK`` — deadlock-freedom: no reachable state has unfinished
  tasks but nothing running (a queue that strands or drops tasks);
* ``MC-STARVE``   — starvation-freedom: a free worker and a non-empty
  node backlog always yield an assignment (``pop`` may not refuse);
  with finite graphs and eager dispatch this, plus deadlock-freedom,
  implies every ready task is eventually assigned on every path;
* ``MC-QUEUE``    — queue accounting: ``depth``/``total`` agree with
  the model's push/pop ledger and ``pop`` only returns tasks it was
  given, on the node it was given them;
* ``MC-PLACE``    — owner-computes / migration-declaration safety: a
  plan's assignment stays on the data's node unless the policy declares
  ``migrates = True``, and always inside the machine;
* ``MC-SCOPE``    — the state cap was hit before the space was
  exhausted (the properties then count as *not* proved).

The exploration memoizes canonical state fingerprints and applies a
partial-order reduction for native-queue policies: when a running
task's *node footprint* (its own node plus every consumer's node) is
disjoint from every other running task's, its completion commutes with
theirs — per-node worker counters, per-node heaps and disjoint
missing-counter decrements — so it is expanded as a singleton ample
set.  Foreign ``ReadyQueue`` disciplines (work stealing, seeded
mutants) get no reduction: their internal state may couple nodes, so
every interleaving is explored.

``benchmarks/bench_scheduler_tournament.py`` requires every property
proved on every case before a policy may be ranked, via
:func:`require_model_checked`.

Run via ``python -m repro.analyze --mc`` (or ``--all``); wired into CI
as a blocking step.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any, Optional, Union

from ..schedulers.queues import PriorityQueues
from .findings import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..config import MachineSpec
    from ..graph.compiled import CompiledGraph
    from ..schedulers import GraphView, SchedulerInterface

__all__ = [
    "ModelCheckResult",
    "check_policies",
    "model_check",
    "require_model_checked",
    "small_scope_cases",
]

#: Default per-case explored-state budget; exceeding it raises
#: ``MC-SCOPE`` and leaves the case unproved.
DEFAULT_MAX_STATES = 200_000


# ---------------------------------------------------------------------------
# Queue models
# ---------------------------------------------------------------------------

class _NativeQueue(PriorityQueues):
    """The native ready discipline — the class the object engine runs —
    plus what exploration needs: cheap clones and a canonical
    fingerprint."""

    def clone(self) -> "_NativeQueue":
        q = _NativeQueue(0, 0)
        q._heaps = [list(h) for h in self._heaps]
        q._seq = self._seq
        return q

    def fingerprint(self) -> tuple[tuple[tuple[float, int, int], ...], ...]:
        """Canonical content: sorted heap entries with sequence numbers
        renumbered in pop order, so two histories with identical pop
        behaviour share one fingerprint."""
        out = []
        for heap in self._heaps:
            entries = sorted(heap)
            out.append(tuple((p, i, t) for i, (p, _, t) in enumerate(entries)))
        return tuple(out)


class _ForeignQueue:
    """Adapter over a policy-supplied :class:`ReadyQueue` instance."""

    __slots__ = ("queue",)

    def __init__(self, queue: Any) -> None:
        self.queue = queue

    def push(self, node: int, task: int, priority: float) -> None:
        self.queue.push(node, task, priority)

    def pop(self, node: int) -> Optional[int]:
        tid = self.queue.pop(node)
        return None if tid is None else int(tid)

    def depth(self, node: int) -> int:
        return int(self.queue.depth(node))

    def total(self) -> int:
        return int(self.queue.total())

    def clone(self) -> "_ForeignQueue":
        try:
            # pickle round-trips 2-5x faster than deepcopy for the
            # plain-container state real ReadyQueues keep.
            return _ForeignQueue(pickle.loads(pickle.dumps(self.queue)))
        except Exception:
            return _ForeignQueue(copy.deepcopy(self.queue))

    def fingerprint(self) -> Any:
        state = vars(self.queue)
        try:
            return pickle.dumps(
                (type(self.queue).__name__, sorted(state.items())))
        except Exception:
            return repr(sorted(state.items(), key=lambda kv: kv[0]))


# ---------------------------------------------------------------------------
# The untimed scheduling model
# ---------------------------------------------------------------------------

class _CaseError(Exception):
    """One finding aborts the current case (properties already false)."""

    def __init__(self, rule: str, message: str, hint: str) -> None:
        super().__init__(message)
        self.rule = rule
        self.hint = hint


class _Model:
    """Shared-semantics transition system for one (graph, machine, plan)."""

    def __init__(
        self,
        view: "GraphView",
        placement: Sequence[int],
        priorities: Sequence[float],
        synchronized: bool,
        queue_proto: Union[_NativeQueue, _ForeignQueue],
    ) -> None:
        n = view.n_tasks
        self.n_tasks = n
        self.nodes = view.num_nodes
        self.cores = view.cores
        self.node_of = [int(x) for x in placement]
        self.prio = [float(x) for x in priorities]
        self.synchronized = synchronized
        self.queue_proto = queue_proto
        self.all_done = (1 << n) - 1

        # The graph as the policy saw it: distinct producers per task and
        # distinct consumers per producer (self-reads are no dependency).
        self.deps_mask = [0] * n
        for t, reads in enumerate(view.inputs):
            for p, _nbytes, _src in reads:
                if p >= 0 and p != t:
                    self.deps_mask[t] |= 1 << p
        self.consumers = [
            tuple(dict.fromkeys(c for c in cons if c != t))
            for t, cons in enumerate(view.consumers)]

        iters = sorted(set(view.iterations))
        iter_pos = {it: i for i, it in enumerate(iters)}
        self.iter_of = [iter_pos[i] for i in view.iterations]
        iter_masks = [0] * len(iters)
        for t in range(n):
            iter_masks[self.iter_of[t]] |= 1 << t
        self.iter_masks = iter_masks

        #: node footprint per task, for the partial-order reduction.
        self.footprint = [
            frozenset([self.node_of[t]]
                      + [self.node_of[c] for c in self.consumers[t]])
            for t in range(n)
        ]

    # -- semantics --------------------------------------------------------

    def _released_iter(self, done: int) -> int:
        r = 0
        masks = self.iter_masks
        while r + 1 < len(masks) and (done & masks[r]) == masks[r]:
            r += 1
        return r

    def _eligible(self, done: int, busy: frozenset[int],
                  queued: frozenset[int],
                  candidates: Sequence[int]) -> list[int]:
        released = self._released_iter(done) if self.synchronized else -1
        out = []
        for c in candidates:
            if (done >> c) & 1 or c in busy or c in queued:
                continue
            if (done & self.deps_mask[c]) != self.deps_mask[c]:
                continue
            if self.synchronized and self.iter_of[c] > released:
                continue
            out.append(c)
        return sorted(out)

    def initial(self) -> tuple[int, frozenset[int], tuple[int, ...],
                               frozenset[int],
                               Union[_NativeQueue, _ForeignQueue]]:
        queue = self.queue_proto.clone()
        free = [self.cores] * self.nodes
        running: set = set()
        queued: set = set()
        ready = self._eligible(0, frozenset(), frozenset(),
                               range(self.n_tasks))
        self._dispatch(ready, free, running, queued, queue)
        self._drain(0, free, running, queued, queue)
        self._check_ledger(queued, queue)
        return (0, frozenset(running), tuple(free), frozenset(queued), queue)

    def _dispatch(self, ready: Sequence[int], free: list[int],
                  running: set, queued: set,
                  queue: Union[_NativeQueue, _ForeignQueue]) -> None:
        """A ready task starts immediately on a free worker of its node;
        only the backlog goes through the policy's queue (this is the
        engines' contract — the queue arbitrates contention)."""
        for c in ready:
            n = self.node_of[c]
            if free[n] > 0:
                free[n] -= 1
                running.add(c)
            else:
                queue.push(n, c, self.prio[c])
                queued.add(c)

    def _drain(self, done: int, free: list[int], running: set, queued: set,
               queue: Union[_NativeQueue, _ForeignQueue]) -> None:
        for n in range(self.nodes):
            while free[n] > 0 and queue.depth(n) > 0:
                tid = queue.pop(n)
                if tid is None:
                    raise _CaseError(
                        "MC-STARVE",
                        f"queue refuses node {n}: pop() returned None "
                        f"with depth {queue.depth(n)} and a free worker",
                        "pop(node) must return a task whenever "
                        "depth(node) > 0",
                    )
                if tid not in queued:
                    raise _CaseError(
                        "MC-QUEUE",
                        f"queue served task {tid} on node {n} which was "
                        "never pushed (or already popped)",
                        "a ReadyQueue must return each pushed task "
                        "exactly once",
                    )
                if self.node_of[tid] != n:
                    raise _CaseError(
                        "MC-QUEUE",
                        f"queue served task {tid} (node "
                        f"{self.node_of[tid]}) to node {n}, breaking "
                        "owner-computes placement",
                        "pop(node) may only return tasks pushed for "
                        "that node",
                    )
                queued.discard(tid)
                free[n] -= 1
                running.add(tid)

    def _check_ledger(self, queued: set,
                      queue: Union[_NativeQueue, _ForeignQueue]) -> None:
        total = queue.total()
        if total != len(queued):
            raise _CaseError(
                "MC-QUEUE",
                f"queue total() reports {total} but holds "
                f"{len(queued)} undrained task(s)",
                "depth()/total() must reflect exactly the pushed-but-"
                "not-popped tasks",
            )

    def complete(
        self,
        state: tuple[int, frozenset[int], tuple[int, ...], frozenset[int],
                     Union[_NativeQueue, _ForeignQueue]],
        t: int,
    ) -> tuple[int, frozenset[int], tuple[int, ...], frozenset[int],
               Union[_NativeQueue, _ForeignQueue]]:
        done, running_f, free_t, queued_f, queue0 = state
        queue = queue0.clone()
        done |= 1 << t
        running = set(running_f)
        running.discard(t)
        queued = set(queued_f)
        free = list(free_t)
        free[self.node_of[t]] += 1
        candidates: Sequence[int]
        if self.synchronized:
            candidates = range(self.n_tasks)  # a barrier may open
        else:
            candidates = self.consumers[t]
        ready = self._eligible(done, frozenset(running), frozenset(queued),
                               candidates)
        self._dispatch(ready, free, running, queued, queue)
        self._drain(done, free, running, queued, queue)
        self._check_ledger(queued, queue)
        return (done, frozenset(running), tuple(free), frozenset(queued),
                queue)

    def fingerprint(self, state: tuple[int, frozenset[int], tuple[int, ...],
                                       frozenset[int],
                                       Union[_NativeQueue, _ForeignQueue]],
                    ) -> bytes:
        done, running, free, queued, queue = state
        return pickle.dumps(
            (done, tuple(sorted(running)), free, tuple(sorted(queued)),
             queue.fingerprint()))


class ModelCheckResult:
    """Exploration summary of one (policy, case) pair."""

    __slots__ = ("label", "states", "transitions", "reduced", "properties",
                 "n_tasks")

    def __init__(self, label: str, n_tasks: int) -> None:
        self.label = label
        self.n_tasks = n_tasks
        self.states = 0
        self.transitions = 0
        self.reduced = 0
        self.properties = {
            "deadlock_free": True,
            "starvation_free": True,
            "queue_consistent": True,
            "placement_safe": True,
            "exhaustive": True,
        }

    def ok(self) -> bool:
        return all(self.properties.values())


_RULE_PROPERTY = {
    "MC-DEADLOCK": "deadlock_free",
    "MC-STARVE": "starvation_free",
    "MC-QUEUE": "queue_consistent",
    "MC-PLACE": "placement_safe",
    "MC-SCOPE": "exhaustive",
}


def model_check(
    cg: "CompiledGraph",
    machine: "MachineSpec",
    policy: Union[str, "SchedulerInterface"],
    label: str = "graph",
    max_states: int = DEFAULT_MAX_STATES,
    rep: Optional[Report] = None,
) -> tuple[ModelCheckResult, Report]:
    """Exhaustively explore one policy on one small compiled graph."""
    from ..runtime.simulator.fast_engine import default_durations
    from ..schedulers import GraphView, PlanError, check_plan, get_policy

    rep = rep if rep is not None else Report()
    pol = get_policy(policy)
    result = ModelCheckResult(label, cg.n_tasks)
    loc = f"mc:{label}[{pol.name}]"

    view = GraphView(cg, machine, default_durations(cg, machine))
    splan = pol.plan(view)

    # Static placement / migration-declaration safety (MC-PLACE).
    try:
        check_plan(pol, splan, cg.node, machine.nodes)
    except PlanError as exc:
        result.properties["placement_safe"] = False
        rep.add("MC-PLACE", "error", str(exc), loc, exc.hint)
        return result, rep
    placement = view.node if splan.assignment is None else splan.assignment

    priorities: Sequence[float]
    if splan.priorities is not None:
        priorities = [float(p) for p in splan.priorities]
    else:
        priorities = [0.0] * cg.n_tasks

    native = splan.queue_factory is None
    proto: Union[_NativeQueue, _ForeignQueue]
    if native:
        proto = _NativeQueue(machine.nodes, machine.cores)
    else:
        proto = _ForeignQueue(splan.queue_factory(machine.nodes,
                                                  machine.cores))
    synchronized = bool(splan.synchronized)
    model = _Model(view, placement, priorities, synchronized, proto)
    use_por = native and not synchronized

    try:
        init = model.initial()
    except _CaseError as exc:
        result.properties[_RULE_PROPERTY[exc.rule]] = False
        rep.add(exc.rule, "error", f"{exc} (initial dispatch)", loc, exc.hint)
        return result, rep

    seen = {model.fingerprint(init)}
    stack = [init]
    try:
        while stack:
            state = stack.pop()
            done, running = state[0], state[1]
            if not running:
                if done != model.all_done:
                    left = model.all_done & ~done
                    n_left = bin(left).count("1")
                    queued = len(state[3])
                    raise _CaseError(
                        "MC-DEADLOCK",
                        f"reachable deadlock: {n_left} task(s) "
                        f"unfinished, {queued} stranded in the queue, "
                        "no worker running",
                        "the queue must eventually serve every pushed "
                        "task and may not drop any",
                    )
                continue
            enabled: Sequence[int] = sorted(running)
            if use_por and len(enabled) > 1:
                for t in enabled:
                    fp = model.footprint[t]
                    if all(fp.isdisjoint(model.footprint[u])
                           for u in enabled if u != t):
                        result.reduced += len(enabled) - 1
                        enabled = [t]
                        break
            for t in enabled:
                succ = model.complete(state, t)
                result.transitions += 1
                key = model.fingerprint(succ)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > max_states:
                        raise _CaseError(
                            "MC-SCOPE",
                            f"state budget of {max_states} exhausted "
                            f"after {result.transitions} transitions",
                            "shrink the case or raise max_states; nothing "
                            "is proved without exhaustion",
                        )
                    stack.append(succ)
    except _CaseError as exc:
        result.properties[_RULE_PROPERTY[exc.rule]] = False
        rep.add(exc.rule, "error", str(exc), loc, exc.hint)
    result.states = len(seen)
    return result, rep


# ---------------------------------------------------------------------------
# The small-scope matrix
# ---------------------------------------------------------------------------

def small_scope_cases() -> list[tuple[str, "CompiledGraph", "MachineSpec"]]:
    """The default exploration matrix: N <= 8 tile graphs on P <= 4
    nodes over clique, chain and grid interconnects.

    Sizes are picked so one policy explores the whole matrix in a few
    seconds while still covering multi-core contention, a non-square
    node count and both Cholesky and LU task structures.
    """
    from ..config import laptop
    from ..distributions.block_cyclic import BlockCyclic2D
    from ..distributions.sbc import SymmetricBlockCyclic
    from ..graph.compiled import compile_cholesky, compile_lu
    from ..topology import chain, clique, grid

    b = 32
    cases: list[tuple[str, "CompiledGraph", "MachineSpec"]] = []

    def add(label: str, cg: "CompiledGraph", nodes: int, cores: int,
            topo_name: str) -> None:
        machine = laptop(nodes=nodes, cores=cores)
        bw = machine.network.bandwidth
        lat = machine.network.latency
        if topo_name == "clique":
            topo = clique(nodes, bw, lat)
        elif topo_name == "chain":
            topo = chain(nodes, bw, lat)
        else:
            rows = 2 if nodes % 2 == 0 else 1
            topo = grid(rows, nodes // rows, bw, lat)
        machine = replace(machine, topology=topo)
        cases.append((f"{label}/{topo_name}", cg, machine))

    add("cholesky-n5/bc2d-2x2/c1", compile_cholesky(5, b, BlockCyclic2D(2, 2)),
        nodes=4, cores=1, topo_name="clique")
    add("cholesky-n4/bc2d-2x2/c2", compile_cholesky(4, b, BlockCyclic2D(2, 2)),
        nodes=4, cores=2, topo_name="grid")
    add("cholesky-n5/sbc3-ext/c2",
        compile_cholesky(5, b, SymmetricBlockCyclic(3)),
        nodes=3, cores=2, topo_name="chain")
    add("lu-n4/bc2d-2x2/c2", compile_lu(4, b, BlockCyclic2D(2, 2)),
        nodes=4, cores=2, topo_name="clique")
    return cases


# ---------------------------------------------------------------------------
# The whole zoo
# ---------------------------------------------------------------------------

def check_policies(
    policies: Optional[Sequence[str]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    cases: Optional[Sequence[tuple[str, "CompiledGraph", "MachineSpec"]]]
        = None,
) -> tuple[dict[str, list[ModelCheckResult]], Report]:
    """Model-check every policy (default: the whole zoo) on the
    small-scope matrix; one result per (policy, case)."""
    from ..schedulers import POLICIES, get_policy

    rep = Report()
    names = list(policies) if policies is not None else sorted(POLICIES)
    matrix = list(cases) if cases is not None else small_scope_cases()
    results: dict[str, list[ModelCheckResult]] = {}
    for name in names:
        pol = get_policy(name)
        rs = [model_check(cg, machine, pol, label, max_states=max_states,
                          rep=rep)[0]
              for label, cg, machine in matrix]
        results[pol.name] = rs
        rep.add(
            "MC-CERT", "info",
            f"policy {pol.name!r}: {len(rs)} case(s), "
            f"{sum(r.states for r in rs)} states, all properties "
            f"{'proved' if all(r.ok() for r in rs) else 'NOT proved'}",
            f"mc:{pol.name}",
        )
    rep.note_pass("model-check", len(names) * len(matrix))
    return results, rep


def require_model_checked(
    policies: Optional[Sequence[str]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    cases: Optional[Sequence[tuple[str, "CompiledGraph", "MachineSpec"]]]
        = None,
) -> dict[str, list[ModelCheckResult]]:
    """Model-check the given policies (default: the whole zoo) and raise
    naming each (policy, case, property) left unproved — the
    tournament's pre-ranking gate."""
    results, rep = check_policies(policies, max_states=max_states,
                                  cases=cases)
    unproved = [
        f"{name} on {r.label}: {prop}"
        for name, rs in results.items() for r in rs
        for prop, ok in r.properties.items() if not ok]
    if unproved:
        detail = "; ".join(str(f) for f in rep.findings
                           if f.severity == "error")
        raise RuntimeError(
            f"scheduler policies failed model checking: "
            f"{', '.join(unproved)} — {detail}")
    return results
