"""Pass 5: bounded-exhaustive check of the ready-queue contract.

The scheduling semantics are stated twice — the object engine (the
oracle) and the compiled engine (the core) — and not a third time here.
This pass checks what a policy hands *both* engines, a plan and a
:class:`~repro.schedulers.ReadyQueue`, against the calls they make:
``push(node, task, priority)`` when a task becomes ready on a node with
no free worker (each task once), ``pop(node)`` once per completion on
``node`` — the only dispatch call; ``None`` idles the worker —
``total()`` in the core's accounting, ``depth(node)`` in the oracle's
``queue.depth.max`` trace gauge.

For every policy and small-scope case, ``MC-PLACE`` is
:func:`~repro.schedulers.check_plan` on the plan.  The plan's queue —
``queue_factory(NODES, CORES)``, or the native
:class:`~repro.schedulers.PriorityQueues` — is then driven through
**every** sequence of up to ``LENGTH`` operations ``push(n, fresh id,
p)`` / ``pop(n)`` over ``NODES`` nodes and the ``PRIORITIES``, a fresh
instance per sequence (nothing is cloned), with a ledger of the tasks
outstanding per node; every interleaving of those calls either engine
can issue at that scope is one of the sequences:

* ``MC-STARVE``   — ``pop(n)`` returns ``None`` while a task pushed for
  ``n`` is outstanding (the engines idle that worker);
* ``MC-DEADLOCK`` — draining a node with ``pop`` alone, while its
  ``CORES`` workers free one after another, leaves a pushed task that is
  never returned (a run would strand it);
* ``MC-QUEUE``    — ``pop(n)`` returns a task that is not outstanding for
  ``n``, or ``total()`` / ``depth(n)`` disagree with the ledger.

The four constants are the whole bound: 55 987 sequences.  A verdict is
its factory's, so a sweep drives each factory once.  The policy
tournament requires every property (:func:`require_model_checked`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from functools import cache
from typing import TYPE_CHECKING, Optional, Union

from ..schedulers.base import ReadyQueue
from ..schedulers.queues import PriorityQueues
from .findings import Report

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..config import MachineSpec
    from ..graph.compiled import CompiledGraph
    from ..schedulers import SchedulerInterface

__all__ = [
    "ModelCheckResult",
    "check_policies",
    "model_check",
    "require_model_checked",
    "small_scope_cases",
]

#: The machine every queue is driven on, and the length of the sequences.
NODES, CORES, PRIORITIES, LENGTH = 2, 2, (0.0, 1.0), 6

#: ``(node, priority)`` pushes a fresh task; ``(node, None)`` pops.
_Op = tuple[int, Optional[float]]
_Factory = Callable[[int, int], ReadyQueue]
_OPS: tuple[_Op, ...] = (tuple((n, p) for n in range(NODES) for p in PRIORITIES)
                         + tuple((n, None) for n in range(NODES)))

_PROPERTY = {
    "MC-DEADLOCK": "deadlock_free",
    "MC-STARVE": "starvation_free",
    "MC-QUEUE": "queue_consistent",
    "MC-PLACE": "placement_safe",
}
_HINT = {
    "MC-DEADLOCK": "pop(node) must eventually return every task pushed for "
                   "node: it is the engines' only dispatch call",
    "MC-STARVE": "pop(node) must return a task while one pushed for node "
                 "is outstanding",
    "MC-QUEUE": "pop(node) returns only tasks pushed for node, each once; "
                "total() and depth(node) count exactly the outstanding ones",
}


def _replay(queue: ReadyQueue, seq: tuple[_Op, ...],
            found: dict[str, str]) -> bool:
    """Drive ``queue`` through ``seq`` (task ids are step numbers), then
    check its counts and drain every node, recording the first
    counterexample per rule in ``found``.  False when the queue returned a
    task the ledger cannot follow: no sequence extends this one."""
    ledger: list[set[int]] = [set() for _ in range(NODES)]

    def note(rule: str, what: str, calls: int) -> None:
        if rule not in found:
            shown = " ".join(
                f"pop({n})" if p is None else f"push({n}, {i}, {p:g})"
                for i, (n, p) in enumerate(seq[:calls]))
            found[rule] = f"{what} after {shown or 'no call'}"

    def pop(node: int, calls: int) -> Optional[bool]:
        """One ``pop(node)``: True served, False idled a worker, None
        returned a task that is not outstanding for ``node``."""
        got = queue.pop(node)
        if got is None:
            if ledger[node]:
                note("MC-STARVE", f"pop({node}) returned None with task(s) "
                     f"{sorted(ledger[node])} outstanding", calls)
            return False
        if got in ledger[node]:
            ledger[node].discard(got)
            return True
        note("MC-QUEUE", f"pop({node}) returned task {got}, which is not "
             f"outstanding for node {node}", calls)
        return None

    for step, (node, prio) in enumerate(seq):
        if prio is not None:
            queue.push(node, step, prio)
            ledger[node].add(step)
        elif pop(node, step) is None:
            return False
    outstanding = [len(tasks) for tasks in ledger]
    depths = [queue.depth(n) for n in range(NODES)]
    if queue.total() != sum(outstanding) or depths != outstanding:
        note("MC-QUEUE", f"total() is {queue.total()} and depth() {depths} "
             f"with {outstanding} outstanding", len(seq))
    for node in range(NODES):
        idle = 0
        while ledger[node] and idle < CORES:
            served = pop(node, len(seq))
            if served is None:
                return False
            idle += not served
        if ledger[node]:
            note("MC-DEADLOCK", f"draining node {node} with pop() strands "
                 f"task(s) {sorted(ledger[node])}", len(seq))
    return True


def _drive(factory: _Factory) -> tuple[int, dict[str, str]]:
    """Every sequence, shortest first: how many, and a shortest
    counterexample per violated rule."""
    found: dict[str, str] = {}
    driven = 0
    frontier: deque[tuple[_Op, ...]] = deque([()])
    while frontier:
        seq = frontier.popleft()
        driven += 1
        if _replay(factory(NODES, CORES), seq, found) and len(seq) < LENGTH:
            frontier.extend(seq + (op,) for op in _OPS)
    return driven, found


@dataclass
class ModelCheckResult:
    """One (policy, case) pair: how many operation sequences its queue
    was driven through, and which properties hold."""

    label: str
    n_tasks: int
    states: int = 0
    properties: dict[str, bool] = field(
        default_factory=lambda: dict.fromkeys(_PROPERTY.values(), True))

    def ok(self) -> bool:
        return all(self.properties.values())


def model_check(
    cg: "CompiledGraph",
    machine: "MachineSpec",
    policy: Union[str, "SchedulerInterface"],
    label: str = "graph",
    rep: Optional[Report] = None,
) -> tuple[ModelCheckResult, Report]:
    """Check one policy's plan on one small compiled graph, then its
    queue against the contract."""
    return _check(cg, machine, policy, label,
                  rep if rep is not None else Report(), _drive)


def _check(cg: "CompiledGraph", machine: "MachineSpec",
           policy: Union[str, "SchedulerInterface"], label: str, rep: Report,
           drive: Callable[[_Factory], tuple[int, dict[str, str]]],
           ) -> tuple[ModelCheckResult, Report]:
    from ..runtime.simulator.fast_engine import default_durations
    from ..schedulers import GraphView, PlanError, check_plan, get_policy

    pol = get_policy(policy)
    result = ModelCheckResult(label, cg.n_tasks)
    loc = f"mc:{label}[{pol.name}]"
    splan = pol.plan(GraphView(cg, machine, default_durations(cg, machine)))
    try:
        check_plan(pol, splan, cg.node, machine.nodes)
    except PlanError as exc:
        result.properties["placement_safe"] = False
        rep.add("MC-PLACE", "error", str(exc), loc, exc.hint)
        return result, rep
    result.states, found = drive(splan.queue_factory or PriorityQueues)
    for rule, message in found.items():
        result.properties[_PROPERTY[rule]] = False
        rep.add(rule, "error", message, loc, _HINT[rule])
    return result, rep


def small_scope_cases() -> list[tuple[str, "CompiledGraph", "MachineSpec"]]:
    """The matrix every policy plans on: N <= 5 Cholesky and LU graphs on
    3 or 4 nodes of 1 or 2 cores, over clique, chain and grid links."""
    from ..config import laptop
    from ..distributions.block_cyclic import BlockCyclic2D
    from ..distributions.sbc import SymmetricBlockCyclic
    from ..graph.compiled import compile_cholesky, compile_lu
    from ..topology import chain, clique, grid

    bc, sbc = BlockCyclic2D(2, 2), SymmetricBlockCyclic(3)
    cases: list[tuple[str, "CompiledGraph", "MachineSpec"]] = []
    for label, cg, nodes, cores, topo_name in (
            ("cholesky-n5/bc2d-2x2/c1", compile_cholesky(5, 32, bc), 4, 1, "clique"),
            ("cholesky-n4/bc2d-2x2/c2", compile_cholesky(4, 32, bc), 4, 2, "grid"),
            ("cholesky-n5/sbc3-ext/c2", compile_cholesky(5, 32, sbc), 3, 2, "chain"),
            ("lu-n4/bc2d-2x2/c2", compile_lu(4, 32, bc), 4, 2, "clique")):
        machine = laptop(nodes=nodes, cores=cores)
        bw, lat = machine.network.bandwidth, machine.network.latency
        topo = (grid(2, nodes // 2, bw, lat) if topo_name == "grid"
                else {"clique": clique, "chain": chain}[topo_name](nodes, bw, lat))
        cases.append((f"{label}/{topo_name}", cg, replace(machine, topology=topo)))
    return cases


def check_policies(
    policies: Optional[Sequence[str]] = None,
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
    drive = cache(_drive)  # a verdict is its factory's: one drive per queue
    for name in names:
        pol = get_policy(name)
        rs = [_check(cg, machine, pol, label, rep, drive)[0]
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
    cases: Optional[Sequence[tuple[str, "CompiledGraph", "MachineSpec"]]]
        = None,
) -> dict[str, list[ModelCheckResult]]:
    """Model-check the given policies (default: the whole zoo) and raise
    naming each (policy, case, property) left unproved — the
    tournament's pre-ranking gate."""
    results, rep = check_policies(policies, cases=cases)
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
