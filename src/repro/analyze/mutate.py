"""Seeded mutation harness: inject known-bad defects, assert detection.

The analyzers are only trustworthy if they *provably* catch the defect
classes they claim to.  This module builds one small, clean Cholesky
setup (graph + compiled graph + simulator trace) plus paired source
snippets and scheduler mutants, derives 21 mutants — each injecting
exactly one defect of a named class (graph/capacity/distribution/trace
tampering, FLOW-BLOCK event-loop stalls, MC-* scheduler defects) — and
runs the matching analyzer on each.  A mutant is *caught* when the
analyzer reports at least one finding with the expected rule id.

The harness is the ``python -m repro.analyze --self-test`` gate: it
fails (exit 1) if the clean baseline is not clean (false positives) or
any mutant survives (false negatives).  ``tests/test_analyze.py``
asserts the same 100%-detection property suite-side.

Mutant selection is driven by ``random.Random(seed)`` so repeated runs
with one seed are identical while different seeds vary the tampered
task/transfer — a cheap way to keep the detectors honest over time.
"""

from __future__ import annotations

import copy
import random
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from ..config import MachineSpec, laptop
from ..distributions.block_cyclic import BlockCyclic2D
from ..distributions.sbc import SymmetricBlockCyclic
from ..graph.cholesky import build_cholesky_graph
from ..graph.compiled import CompiledGraph, compile_cholesky, compile_graph
from ..obs.events import Recorder
from ..runtime.simulator.engine import simulate
from ..schedulers import (
    GraphView,
    PriorityQueues,
    ReadyQueue,
    SchedulePlan,
    SchedulerInterface,
)
from .findings import Report, Severity
from .flow import flow_module
from .mc import model_check
from .races import compare_traces, detect_races
from .schedule import (
    verify_compiled,
    verify_sbc,
    verify_theorem1,
    verify_topology_capacity,
)

__all__ = ["Baseline", "Mutant", "MutationOutcome", "build_baseline",
           "run_mutation_harness", "self_test"]


@dataclass
class Baseline:
    """One clean setup every mutant derives from."""

    N: int
    dist: SymmetricBlockCyclic
    machine: MachineSpec
    graph: object  # TaskGraph
    cg: CompiledGraph
    recorder: Recorder


@dataclass(frozen=True)
class Mutant:
    """One injected defect: a name, the defect class, the expected rule."""

    name: str
    defect: str  # "cycle", "double-writer", "symmetry-break", ...
    expected_rule: str
    run: Callable[[], Report]


@dataclass
class MutationOutcome:
    """Result of running the analyzers on one mutant."""

    name: str
    defect: str
    expected_rule: str
    rules_hit: list[str]

    @property
    def caught(self) -> bool:
        return self.expected_rule in self.rules_hit


def _clone(cg: CompiledGraph) -> CompiledGraph:
    """Independent copy of a compiled graph: every field copied, the
    memos (``_plan``, ``_cons_csr``, ``_structure_hash``) left unset."""
    return CompiledGraph(**{f.name: copy.copy(getattr(cg, f.name))
                            for f in fields(cg) if not f.name.startswith("_")})


def _copy_recorder(rec: Recorder) -> Recorder:
    out = Recorder(source=rec.source)
    out.task_events = list(rec.task_events)
    out.transfer_events = list(rec.transfer_events)
    out.io_events = list(rec.io_events)
    out.cache_events = list(rec.cache_events)
    out.fault_events = list(rec.fault_events)
    return out


def build_baseline(N: int = 6, r: int = 4, b: int = 32,
                   cores: int = 2) -> Baseline:
    """Clean Cholesky setup: SBC(r) graph, compiled arrays, traced run."""
    dist = SymmetricBlockCyclic(r)
    graph = build_cholesky_graph(N, b, dist)
    cg = compile_graph(graph)
    machine = laptop(nodes=dist.num_nodes, cores=cores)
    rec = Recorder(source="simulator")
    simulate(graph, machine, trace=True, recorder=rec)
    return Baseline(N=N, dist=dist, machine=machine, graph=graph, cg=cg,
                    recorder=rec)


# ---------------------------------------------------------------------------
# Mutant constructors.  Each returns a callable producing the Report of
# the matching analyzer on the tampered artifact.
# ---------------------------------------------------------------------------


def _remote_edge(base: Baseline, rng: random.Random) -> tuple[int, int]:
    """(data id, consumer task) of a randomly chosen remote produced read."""
    cg = base.cg
    consumers = np.repeat(
        np.arange(cg.n_tasks, dtype=np.int64), np.diff(cg.read_ptr)
    )
    remote = np.flatnonzero(
        (cg.data_producer[cg.read_ids] >= 0)
        & (cg.data_source_node[cg.read_ids] != cg.node[consumers])
    )
    e = int(remote[rng.randrange(len(remote))])
    return int(cg.read_ids[e]), int(consumers[e])


def _graph_mutants(base: Baseline, rng: random.Random) -> list[Mutant]:
    dist = base.dist

    def verify(cg: CompiledGraph) -> Report:
        return verify_compiled(cg, dist=dist, name="mutant")

    def cycle() -> Report:
        # The first POTRF comes to read a TRSM output that (transitively)
        # depends on it: a genuine 2-cycle, caught as the backward read
        # that closes it.
        cg = _clone(base.cg)
        trsm = int(np.flatnonzero(cg.kind_names.index("TRSM")
                                  == cg.kind_codes)[0])
        cg.read_ids[cg.read_ptr[0]] = cg.write_id[trsm]
        return verify(cg)

    def back_edge() -> Report:
        # Two independent TRSMs of the first panel: redirect the earlier
        # one's diagonal read to the later one's output — a backward edge
        # with no cycle (the later TRSM does not depend on the earlier).
        cg = _clone(base.cg)
        trsm_code = cg.kind_names.index("TRSM")
        t1, t2 = (int(t) for t in np.flatnonzero(
            cg.kind_codes == trsm_code)[:2])
        cg.read_ids[cg.read_ptr[t1] + 1] = cg.write_id[t2]
        return verify(cg)

    def double_writer() -> Report:
        cg = _clone(base.cg)
        tasks = sorted(rng.sample(range(1, cg.n_tasks), 2))
        cg.write_id[tasks[1]] = cg.write_id[tasks[0]]
        return verify(cg)

    def self_dependency() -> Report:
        cg = _clone(base.cg)
        t = rng.randrange(cg.n_tasks)
        cg.read_ids[cg.read_ptr[t]] = cg.write_id[t]
        return verify(cg)

    def undeclared_read() -> Report:
        cg = _clone(base.cg)
        t = rng.randrange(cg.n_tasks)
        cg.read_ids[cg.read_ptr[t]] = cg.n_data + 7
        return verify(cg)

    def negative_node() -> Report:
        cg = _clone(base.cg)
        cg.node[rng.randrange(cg.n_tasks)] = -3
        return verify(cg)

    def owner_break() -> Report:
        # Move one task off its tile's owner; the version's declared
        # source node no longer matches the producer's placement.
        cg = _clone(base.cg)
        t = rng.randrange(cg.n_tasks)
        cg.node[t] = (int(cg.node[t]) + 1) % dist.num_nodes
        return verify(cg)

    return [
        Mutant("cycle-potrf-trsm", "cycle", "SCHED-TOPO", cycle),
        Mutant("backward-edge", "topological-order", "SCHED-TOPO", back_edge),
        Mutant("double-writer", "double-writer", "SCHED-WRITER",
               double_writer),
        Mutant("self-dependency", "self-dependency", "SCHED-SELF",
               self_dependency),
        Mutant("undeclared-read", "undeclared-read", "SCHED-READS",
               undeclared_read),
        Mutant("negative-node", "bad-placement", "SCHED-NODE",
               negative_node),
        Mutant("owner-computes-break", "bad-placement", "SCHED-NODE",
               owner_break),
    ]


class _AsymmetricSBC(SymmetricBlockCyclic):
    """SBC with one off-diagonal owner tampered: breaks row/col symmetry."""

    def owner(self, i: int, j: int) -> int:
        if (i, j) == (1, 0):
            return (super().owner(1, 0) + 1) % self.num_nodes
        return super().owner(i, j)

    def owner_map(self, N: int) -> np.ndarray:
        out = super().owner_map(N)
        if N > 1:
            out[1, 0] = (out[1, 0] + 1) % self.num_nodes
        return out


class _FakeSBC(SymmetricBlockCyclic):
    """Claims SBC(r) but scatters owners round-robin: Theorem 1 fails."""

    def owner(self, i: int, j: int) -> int:
        if i < j:
            i, j = j, i
        return (i + 2 * j) % self.num_nodes

    def owner_map(self, N: int) -> np.ndarray:
        idx = np.arange(N)
        i = np.maximum(idx[:, None], idx[None, :])
        j = np.minimum(idx[:, None], idx[None, :])
        return (i + 2 * j) % self.num_nodes


def _capacity_mutants(base: Baseline) -> list[Mutant]:
    from ..topology import chain

    net = base.machine.network
    routed = replace(
        base.machine,
        topology=chain(base.machine.nodes, bandwidth=net.bandwidth,
                       latency=net.latency),
    )

    def infeasible_makespan() -> Report:
        # Claim the schedule finished in 1 ns: the routed chain links
        # could not even have carried the traffic's wire time.
        return verify_topology_capacity(base.cg, routed, 1e-9, name="mutant")

    return [
        Mutant("infeasible-makespan", "capacity-violation", "SCHED-TOPO-CAP",
               infeasible_makespan),
    ]


def _distribution_mutants(base: Baseline) -> list[Mutant]:
    N, r = base.N, base.dist.r

    def symmetry_break() -> Report:
        return verify_sbc(_AsymmetricSBC(r), N)

    def volume_break() -> Report:
        return verify_theorem1(_FakeSBC(r), max(N, 3 * r))

    return [
        Mutant("asymmetric-owner", "symmetry-break", "SCHED-SBC-SYM",
               symmetry_break),
        Mutant("fake-sbc-volume", "volume-bound", "SCHED-THM1",
               volume_break),
    ]


def _trace_mutants(base: Baseline, rng: random.Random) -> list[Mutant]:
    cg = base.cg
    key_of = cg.data_keys

    def races(rec: Recorder) -> Report:
        return detect_races(rec, cg, name="mutant")

    def early_start() -> Report:
        # A consumer of a remote tile starts before the delivery lands.
        rec = _copy_recorder(base.recorder)
        d, t = _remote_edge(base, rng)
        deliveries = [e for e in rec.transfer_events
                      if e.key == key_of[d] and e.dst == int(cg.node[t])]
        delivered = max(e.delivered for e in deliveries)
        idx = next(i for i, e in enumerate(rec.task_events)
                   if e.task_id == t)
        e = rec.task_events[idx]
        shift = (e.start - delivered) + 0.25 * (e.end - e.start) + 1e-6
        rec.task_events[idx] = e._replace(
            ready=e.ready - shift, start=e.start - shift, end=e.end - shift)
        return races(rec)

    def missing_transfer() -> Report:
        # Drop one delivery whose tile a task actually consumed remotely.
        rec = _copy_recorder(base.recorder)
        d, t = _remote_edge(base, rng)
        rec.transfer_events = [
            e for e in rec.transfer_events
            if not (e.key == key_of[d] and e.dst == int(cg.node[t]))
        ]
        return races(rec)

    def order_inversion() -> Report:
        # Deliver an older version of a tile after a newer one reached
        # the same destination (retransmit-reorder hazard).
        rec = _copy_recorder(base.recorder)
        by_tile: dict[tuple[str, int, int, int], list[int]] = {}
        for i, e in enumerate(rec.transfer_events):
            k = e.key
            by_tile.setdefault((k.name, k.i, k.j, k.part), []).append(i)
        # Pick any delivered transfer; replay a *stale* version of its
        # tile (version - 1 exists for every produced version with ver>0)
        # to the same destination, after the fresh one landed.
        cand = [i for i, e in enumerate(rec.transfer_events)
                if e.key.ver > 0]
        e = rec.transfer_events[cand[rng.randrange(len(cand))]]
        stale_key = e.key._replace(ver=e.key.ver - 1)
        src = int(cg.data_source_node[key_of.index(stale_key)])
        stale = e._replace(
            key=stale_key, src=src,
            submitted=e.delivered + 1e-6, started=e.delivered + 2e-6,
            delivered=e.delivered + 3e-6,
        )
        rec.transfer_events.append(stale)
        return races(rec)

    def stale_retry() -> Report:
        # A retransmission fires for a message that was already delivered.
        rec = _copy_recorder(base.recorder)
        e = rec.transfer_events[rng.randrange(len(rec.transfer_events))]
        rec.record_fault("retry", time=e.delivered + 0.5, src=e.src,
                         dst=e.dst, key=e.key, detail="ack lost")
        return races(rec)

    def determinism_break() -> Report:
        # Replay the seeded run... with one task on the wrong node.
        other = _copy_recorder(base.recorder)
        idx = rng.randrange(len(other.task_events))
        e = other.task_events[idx]
        other.task_events[idx] = e._replace(
            node=(e.node + 1) % base.dist.num_nodes,
            start=e.start + 1e-3, end=e.end + 1e-3)
        return compare_traces(base.recorder, other, name="mutant")

    return [
        Mutant("early-start-race", "race", "RACE-HB", early_start),
        Mutant("missing-transfer", "race", "RACE-MISSING", missing_transfer),
        Mutant("stale-version-delivery", "race", "RACE-ORDER",
               order_inversion),
        Mutant("retry-after-delivery", "race", "RACE-RETRY", stale_retry),
        Mutant("nondeterministic-replay", "nondeterminism",
               "RACE-DETERMINISM", determinism_break),
    ]


# ---------------------------------------------------------------------------
# FLOW mutants: paired clean/defective source snippets through flow_module
# ---------------------------------------------------------------------------

#: ``(name, expected rule, clean twin, mutant, virtual path)``.  The
#: clean twin is the *fixed* form of the same code; the harness runs it
#: through the flow pass as part of the no-false-positive baseline.
_FLOW_SNIPPETS: list[tuple[str, str, str, str, str]] = [
    (
        "flow-block-event-loop-fsync", "FLOW-BLOCK",
        # The PR 7 service defect: fsync-under-submit must go through
        # run_in_executor (passing _persist as a value, not calling it).
        '''\
import asyncio
import os


class Server:
    async def submit(self, spec, record):
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._persist, spec, record)

    def _persist(self, skey, record):
        with open(skey, "ab") as fh:
            os.fsync(fh.fileno())
''',
        '''\
import os


class Server:
    async def submit(self, spec, record):
        self._persist(spec, record)

    def _persist(self, skey, record):
        with open(skey, "ab") as fh:
            os.fsync(fh.fileno())
''',
        "repro/service/_mutant.py",
    ),
    (
        "flow-block-future-result", "FLOW-BLOCK",
        '''\
import asyncio


async def run_job(pool, fn, spec):
    return await asyncio.wrap_future(pool.submit(fn, spec))
''',
        '''\
async def run_job(pool, fn, spec):
    return pool.submit(fn, spec).result()
''',
        "repro/service/_mutant.py",
    ),
]


def _flow_mutants() -> list[Mutant]:
    """Each defective snippet must trip FLOW-BLOCK."""
    out: list[Mutant] = []
    for name, rule, _clean_src, bad_src, rel in _FLOW_SNIPPETS:
        def run(bad_src: str = bad_src, rel: str = rel) -> Report:
            return flow_module(bad_src, rel)
        out.append(Mutant(name, "dataflow", rule, run))
    return out


def _flow_clean_baseline() -> Report:
    """The clean twins through the flow pass (false-positive gate)."""
    rep = Report()
    for _name, _rule, clean_src, _bad_src, rel in _FLOW_SNIPPETS:
        rep.extend(flow_module(clean_src, rel))
    return rep


# ---------------------------------------------------------------------------
# MC mutants: defective queue disciplines / policies through model_check
# ---------------------------------------------------------------------------

class _HeldQueue(ReadyQueue):
    """Holds every pushed task in a FIFO per node and serves none; its
    counts are honest.  Each mutant below breaks one more call."""

    def __init__(self, num_nodes: int, cores: int) -> None:
        self._held: list[list[int]] = [[] for _ in range(num_nodes)]

    def push(self, node: int, task: int, priority: float) -> None:
        self._held[node].append(task)

    def pop(self, node: int) -> Optional[int]:
        return None

    def depth(self, node: int) -> int:
        return len(self._held[node])

    def total(self) -> int:
        return sum(map(len, self._held))


class _HiddenBacklogQueue(_HeldQueue):
    """``depth()`` hides the backlog and ``pop()`` never serves it: a run
    strands its pushed tasks with every worker idle — a deadlock.  The
    engines dispatch on ``pop`` alone, so this is the defect of
    :class:`_RefusingQueue`; the hidden depth adds ``MC-QUEUE``."""

    def depth(self, node: int) -> int:
        return 0


class _RefusingQueue(_HeldQueue):
    """Advertises its backlog but refuses every ``pop()``: a worker that
    frees is never given the ready task (starvation)."""


class _LyingLedgerQueue(_HeldQueue):
    """Serves each node in push order but reports ``total() == 0``: the
    core's end-of-run accounting is silently wrong."""

    def pop(self, node: int) -> Optional[int]:
        held = self._held[node]
        return held.pop(0) if held else None

    def total(self) -> int:
        return 0


class _ZeroDepthQueue(PriorityQueues):
    """The native discipline with ``depth()`` always 0.  Both engines run
    it bit-identically to the native queue — neither dispatches on
    ``depth`` — so the checker may convict it of ``MC-QUEUE`` only: it is
    part of the clean baseline."""

    def depth(self, node: int) -> int:
        return 0


def _queue_policy(policy_name: str,
                  factory: Callable[[int, int], ReadyQueue]
                  ) -> SchedulerInterface:
    class _QueueMutantPolicy(SchedulerInterface):
        name = policy_name

        def plan(self, view: GraphView) -> SchedulePlan:
            return SchedulePlan(queue_factory=factory)

    return _QueueMutantPolicy()


class _UndeclaredMigrator(SchedulerInterface):
    """Returns a placement override without declaring ``migrates``."""

    name = "mutant-migrator"

    def plan(self, view: GraphView) -> SchedulePlan:
        return SchedulePlan(assignment=[0] * view.n_tasks)


def _mc_case() -> tuple[CompiledGraph, MachineSpec]:
    """Tiny case every MC mutant plans on."""
    cg = compile_cholesky(4, 32, BlockCyclic2D(2, 2))
    return cg, laptop(nodes=4, cores=1)


def _mc_mutants() -> list[Mutant]:
    cg, machine = _mc_case()

    def check(policy: SchedulerInterface) -> Callable[[], Report]:
        def run() -> Report:
            _result, rep = model_check(cg, machine, policy,
                                       label="mutant-case")
            return rep
        return run

    return [
        Mutant("mc-hidden-backlog-deadlock", "scheduler", "MC-DEADLOCK",
               check(_queue_policy("mutant-deadlock", _HiddenBacklogQueue))),
        Mutant("mc-refused-pop-starvation", "scheduler", "MC-STARVE",
               check(_queue_policy("mutant-starve", _RefusingQueue))),
        Mutant("mc-lying-queue-ledger", "scheduler", "MC-QUEUE",
               check(_queue_policy("mutant-ledger", _LyingLedgerQueue))),
        Mutant("mc-undeclared-migration", "scheduler", "MC-PLACE",
               check(_UndeclaredMigrator())),
    ]


def _mc_clean_baseline() -> Report:
    """The default policy model-checks clean on the tiny case, and the
    zero-depth queue, which both engines run, strands and starves
    nothing."""
    cg, machine = _mc_case()
    _result, rep = model_check(cg, machine, "critical-path",
                               label="mutant-case")
    _result, zero = model_check(
        cg, machine, _queue_policy("zero-depth", _ZeroDepthQueue),
        label="mutant-case")
    rep.findings += zero.by_rule("MC-DEADLOCK") + zero.by_rule("MC-STARVE")
    return rep


def run_mutation_harness(
    seed: int = 0, base: Optional[Baseline] = None
) -> tuple[list[MutationOutcome], Report]:
    """Build the mutants, run the analyzers, report detection.

    Returns the per-mutant outcomes plus a :class:`Report` that contains
    one error finding per *missed* mutant and one per baseline false
    positive — i.e. an empty-of-errors report proves the
    no-false-negative gate.
    """
    rng = random.Random(seed)
    if base is None:
        base = build_baseline()
    gate = Report()

    # The clean baseline must be clean (no false positives).
    clean = verify_compiled(base.cg, dist=base.dist, name="baseline")
    clean.extend(verify_sbc(base.dist, base.N, name="baseline"))
    clean.extend(detect_races(base.recorder, base.cg, name="baseline"))
    rerun = Recorder(source="simulator")
    rep = simulate(base.graph, base.machine, trace=True, recorder=rerun)
    clean.extend(compare_traces(base.recorder, rerun, name="baseline"))
    clean.extend(verify_topology_capacity(base.cg, base.machine,
                                          rep.makespan, name="baseline"))
    clean.extend(_flow_clean_baseline())
    clean.extend(_mc_clean_baseline())
    gate.note_pass("mutation-baseline", 1)
    for f in clean.by_severity(Severity.ERROR):
        gate.add("MUT-FALSE-POSITIVE", Severity.ERROR,
                 f"clean baseline flagged: {f.rule}: {f.message}",
                 f.location,
                 "an analyzer reports defects on a verified-clean run")

    mutants = (_graph_mutants(base, rng) + _capacity_mutants(base)
               + _distribution_mutants(base) + _trace_mutants(base, rng)
               + _flow_mutants() + _mc_mutants())
    outcomes: list[MutationOutcome] = []
    for m in mutants:
        found = m.run()
        outcome = MutationOutcome(
            name=m.name, defect=m.defect, expected_rule=m.expected_rule,
            rules_hit=[r for r in found.rules_hit()
                       if found.by_rule(r)[0].severity != Severity.INFO],
        )
        outcomes.append(outcome)
        gate.note_pass("mutation", 1)
        if not outcome.caught:
            gate.add(
                "MUT-FALSE-NEGATIVE", Severity.ERROR,
                f"injected {m.defect} defect ({m.name}) was not caught: "
                f"expected {m.expected_rule}, analyzers reported "
                f"{outcome.rules_hit or 'nothing'}",
                f"mutant:{m.name}",
                "the matching analyzer rule lost its teeth",
            )
    return outcomes, gate


def self_test(seed: int = 0, verbose: bool = False,
              base: Optional[Baseline] = None) -> Report:
    """The ``--self-test`` entry: mutation gate as a findings report."""
    outcomes, gate = run_mutation_harness(seed=seed, base=base)
    caught = sum(1 for o in outcomes if o.caught)
    if verbose:  # pragma: no cover - CLI cosmetics
        for o in outcomes:
            mark = "caught" if o.caught else "MISSED"
            print(f"  {mark:7s} {o.name:28s} [{o.defect}] -> "
                  f"{', '.join(o.rules_hit) or '-'}")
    gate.add(
        "MUT-SUMMARY", Severity.INFO,
        f"{caught}/{len(outcomes)} injected defects detected "
        f"(seed {seed})",
        "mutation-harness",
    )
    return gate
