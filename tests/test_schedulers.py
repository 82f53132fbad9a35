"""Unit tests for the pluggable scheduler framework (repro.schedulers).

The cross-engine equality of every policy is pinned in
``tests/test_compiled_engine.py`` (TestPolicyConformance); this file
covers the framework pieces in isolation: the one graph view against the
``TaskGraph`` it was lowered from, the plan contract and its three
callers, queue determinism, and the MC-PLACE analyzer rule.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analyze.mc import check_policies, model_check
from repro.config import laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph
from repro.graph.compiled import compile_cholesky, compile_graph
from repro.runtime.faults import FaultPlan, SimulatedFailure, WorkerCrash
from repro.runtime.simulator import engine, simulate, simulate_compiled
from repro.runtime.simulator.fast_engine import _prepare, default_durations
from repro.schedulers import (
    DEFAULT_POLICY,
    POLICIES,
    GraphView,
    LookaheadHEFT,
    PlanError,
    SchedulePlan,
    SchedulerInterface,
    WorkStealingQueues,
    get_policy,
)
from repro.topology import Heterogeneity, clique

DIST = SymmetricBlockCyclic(4)
N, B = 10, 32


def _case():
    """(object graph, machine, its default duration_fn, the view)."""
    g = build_cholesky_graph(N, B, DIST)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    kernel = m.kernel
    duration_fn = lambda t: kernel.duration(t.flops, g.b)  # noqa: E731
    cg = compile_graph(g)
    return g, m, duration_fn, GraphView(cg, m, default_durations(cg, m))


# --------------------------------------------------------------------------
# the view: every column against the TaskGraph it was lowered from
# --------------------------------------------------------------------------

class TestGraphViews:
    def test_scalar_columns_match(self):
        g, m, _, view = _case()
        assert view.n_tasks == len(g.tasks)
        assert view.num_nodes == m.nodes
        assert view.cores == m.cores
        assert view.bandwidth == m.network.bandwidth
        assert view.latency == m.network.latency
        assert view.topology is m.topology

    def test_array_columns_bit_identical(self):
        g, _, duration_fn, view = _case()
        assert list(view.node) == [t.node for t in g.tasks]
        assert list(view.kinds) == [t.kind for t in g.tasks]
        assert list(view.iterations) == [t.iteration for t in g.tasks]
        assert list(view.out_bytes) == [
            g.data_bytes(t.write) if t.write is not None else 0
            for t in g.tasks]
        # Durations must be IEEE-identical to what the object engine
        # charges per task, not merely close: policies fold them into
        # priorities that break scheduling ties.
        assert list(view.durations) == [duration_fn(t) for t in g.tasks]

    def test_consumers_and_inputs_identical(self):
        g, _, _, view = _case()
        consumers = [[] for _ in g.tasks]
        inputs = []
        for t in g.tasks:
            rows = []
            for k in t.reads:
                pid = g.producer.get(k)
                if pid is not None:
                    consumers[pid].append(t.id)
                    rows.append((pid, g.data_bytes(k), g.tasks[pid].node))
                else:
                    rows.append((-1, g.data_bytes(k), g.initial[k][0]))
            inputs.append(rows)
        assert [list(c) for c in view.consumers] == consumers
        assert [list(i) for i in view.inputs] == inputs

    def test_consumers_are_sorted_with_duplicates_kept(self):
        """A consumer reading two outputs of the same task appears once
        per read, ascending."""
        view = _case()[3]
        for cons in view.consumers:
            assert list(cons) == sorted(cons)

    def test_comm_cost_is_latency_plus_wire_time(self):
        view = _case()[3]
        nbytes = 8192
        assert view.comm_cost(nbytes) == view.latency + nbytes / view.bandwidth

    def test_thunks_run_on_first_column_read_only(self):
        g, m, duration_fn, _ = _case()
        calls = []

        def lower():
            calls.append("cg")
            return compile_graph(g)

        def durations():
            calls.append("durations")
            return [duration_fn(t) for t in g.tasks]

        view = GraphView(lower, m, durations)
        assert view.num_nodes == m.nodes and calls == []
        assert view.n_tasks == len(g.tasks) and calls == ["cg"]
        assert len(view.durations) == len(view.node) == len(g.tasks)
        assert calls == ["cg", "durations"]

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_object_engine_lowers_only_for_policies_that_read(
            self, name, monkeypatch):
        """``scheduler=None`` and the policies that ignore the view never
        pay for ``compile_graph`` on the object engine."""
        g, m, _, _ = _case()
        lowered = []
        monkeypatch.setattr(
            engine, "compile_graph",
            lambda graph: lowered.append(graph) or compile_graph(graph))
        simulate(g, m)
        assert lowered == []
        simulate(g, m, scheduler=name)
        reads = name in ("bytes-critical-path", "heft-lookahead",
                         "comm-avoiding")
        assert lowered == ([g] if reads else [])


# --------------------------------------------------------------------------
# the registry and the plan contract
# --------------------------------------------------------------------------

class TestRegistry:
    def test_registry_has_the_zoo(self):
        assert len(POLICIES) >= 5
        assert DEFAULT_POLICY == "critical-path"
        for name, cls in POLICIES.items():
            assert cls.name == name
            assert cls.description

    def test_get_policy_resolution(self):
        assert get_policy(None).name == DEFAULT_POLICY
        assert get_policy("fork-join").name == "fork-join"
        inst = POLICIES["work-stealing"]()
        assert get_policy(inst) is inst
        with pytest.raises(ValueError, match="unknown scheduler policy"):
            get_policy("does-not-exist")

    def test_default_policy_plan_is_native(self):
        plan = get_policy(None).plan(_case()[3])
        assert plan.is_native()
        assert not plan.synchronized

    def test_plans_are_deterministic(self):
        """The same plan from the generic lowering (the object engine's
        route to the view) and from the column sink."""
        _, m, _, view = _case()
        cg = compile_cholesky(N, B, DIST)
        direct = GraphView(cg, m, default_durations(cg, m))
        for name in POLICIES:
            p1 = get_policy(name).plan(view)
            p2 = get_policy(name).plan(direct)
            if p1.priorities is None:
                assert p2.priorities is None
            else:
                assert list(p1.priorities) == list(p2.priorities), name
            if p1.assignment is None:
                assert p2.assignment is None
            else:
                assert list(p1.assignment) == list(p2.assignment), name

    def test_only_heft_migrates(self):
        migrating = {n for n, c in POLICIES.items() if c.migrates}
        assert migrating == {"heft-lookahead"}

    def test_fork_join_equals_synchronized_flag(self):
        g = build_cholesky_graph(N, B, DIST)
        m = laptop(nodes=DIST.num_nodes, cores=2)
        assert (simulate(g, m, scheduler="fork-join").makespan
                == simulate(g, m, synchronized=True).makespan)

    def test_bad_priority_length_rejected(self):
        class Short(SchedulerInterface):
            name = "short"
            description = "returns too few priorities"

            def plan(self, view):
                return SchedulePlan(priorities=[1.0])

        g = build_cholesky_graph(6, B, BlockCyclic2D(2, 2))
        cg = compile_graph(g)
        m = laptop(nodes=4, cores=2)
        with pytest.raises(ValueError, match="priorities"):
            simulate(g, m, scheduler=Short())
        with pytest.raises(ValueError, match="priorities"):
            simulate_compiled(cg, m, scheduler=Short())

    def test_out_of_range_assignment_rejected(self):
        class Offworld(SchedulerInterface):
            name = "offworld"
            description = "assigns tasks to a node the machine lacks"
            migrates = True

            def plan(self, view):
                return SchedulePlan(assignment=[view.num_nodes] * view.n_tasks)

        g = build_cholesky_graph(6, B, BlockCyclic2D(2, 2))
        cg = compile_graph(g)
        m = laptop(nodes=4, cores=2)
        with pytest.raises(ValueError, match="outside"):
            simulate(g, m, scheduler=Offworld())
        with pytest.raises(ValueError, match="outside"):
            simulate_compiled(cg, m, scheduler=Offworld())


# --------------------------------------------------------------------------
# one plan check, three callers, each with its own way of reporting
# --------------------------------------------------------------------------

def _bad_policy(defect):
    class Bad(SchedulerInterface):
        name = f"bad-{defect}"
        description = "returns a plan check_plan must refuse"
        # ``migrates`` stays False, so the third plan is undeclared.

        def plan(self, view):
            if defect == "mis-sized":
                return SchedulePlan(assignment=list(view.node)[:-1])
            if defect == "out-of-range":
                return SchedulePlan(assignment=[view.num_nodes] * view.n_tasks)
            return SchedulePlan(
                assignment=[(n + 1) % view.num_nodes for n in view.node])

    return Bad()


class TestPlanCheck:
    MESSAGE = {"mis-sized": "assignments for", "out-of-range": "outside nodes",
               "undeclared": "without declaring migrates"}

    @pytest.mark.parametrize("caller", ["simulate", "simulate_compiled",
                                        "MC-PLACE"])
    @pytest.mark.parametrize("defect", sorted(MESSAGE))
    def test_every_caller_reports_every_defect(self, defect, caller):
        g = build_cholesky_graph(4, B, BlockCyclic2D(2, 2))
        cg = compile_graph(g)
        m = laptop(nodes=4, cores=1)
        policy = _bad_policy(defect)
        match = self.MESSAGE[defect]
        if caller == "simulate":
            with pytest.raises(PlanError, match=match):
                simulate(g, m, scheduler=policy)
        elif caller == "simulate_compiled":
            with pytest.raises(PlanError, match=match):
                simulate_compiled(cg, m, scheduler=policy)
        else:
            result, rep = model_check(cg, m, policy, label="g")
            assert not result.properties["placement_safe"]
            [finding] = rep.by_rule("MC-PLACE")
            assert match in finding.message
            assert finding.location == f"mc:g[{policy.name}]"

    def test_plan_error_is_a_value_error_naming_the_tasks(self):
        cg = compile_graph(build_cholesky_graph(4, B, BlockCyclic2D(2, 2)))
        with pytest.raises(ValueError) as err:
            simulate_compiled(cg, laptop(nodes=4, cores=1),
                              scheduler=_bad_policy("out-of-range"))
        assert list(err.value.tasks) == list(range(cg.n_tasks))
        assert err.value.hint


# --------------------------------------------------------------------------
# both engines run the plan the analyzers checked
# --------------------------------------------------------------------------

class _RecordingHEFT(LookaheadHEFT):
    def __init__(self):
        self.assignments = []

    def plan(self, view):
        plan = super().plan(view)
        self.assignments.append(list(plan.assignment))
        return plan


def test_analyzers_plan_with_the_engine_durations_on_heterogeneous_nodes():
    """MC-PLACE must check the assignment the engine runs:
    on a topology with per-node speeds that means planning against
    durations divided by the speed, as ``_prepare`` does."""
    dist = BlockCyclic2D(2, 2)
    g = build_cholesky_graph(6, B, dist)
    cg = compile_graph(g)
    base = laptop(nodes=4, cores=1)
    m = replace(base, topology=clique(
        4, base.network.bandwidth, base.network.latency,
        hetero=Heterogeneity.alternating(4, slow_speed=0.25)))
    policy = _RecordingHEFT()
    applied = _prepare(cg, m, scheduler=policy).cg.node.tolist()
    model_check(cg, m, policy)
    simulate(g, m, scheduler=policy)
    assert policy.assignments == [applied] * 3
    # The speeds matter to this plan: the homogeneous machine gets another.
    assert _prepare(cg, base, scheduler=policy).cg.node.tolist() != applied


def test_a_migrated_task_runs_at_the_speed_of_its_new_node():
    """Both engines charge a task ``heft-lookahead`` moved the speed of
    the node it runs on; the core charged its owner's (2.044 s here)."""
    dist = BlockCyclic2D(2, 2)
    base = laptop(nodes=4, cores=1)
    m = replace(base, topology=clique(
        4, base.network.bandwidth, base.network.latency,
        hetero=Heterogeneity.alternating(4, slow_speed=0.25)))
    g = build_cholesky_graph(6, 512, dist)
    for policy, makespan in (("heft-lookahead", 3.140709920021736),
                             ("critical-path", 2.934313453673913)):
        assert simulate(g, m, scheduler=policy).makespan == makespan
        assert simulate_compiled(compile_cholesky(6, 512, dist), m,
                                 scheduler=policy).makespan == makespan


def _custom_duration(task):
    return 1e-4 * (1 + task.id % 7) + 1e-9 * task.flops


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_custom_durations_agree_across_engines(name):
    """Object engine + ``duration_fn`` == compiled engine + the same
    numbers as an array, under every policy: the object engine plans on
    the lowered view with *its caller's* durations."""
    g = build_cholesky_graph(N, B, DIST)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    durations = np.asarray([_custom_duration(t) for t in g.tasks])
    obj = simulate(g, m, duration_fn=_custom_duration, scheduler=name)
    arr = simulate_compiled(compile_graph(g), m, durations=durations,
                            scheduler=name)
    assert (obj.makespan, obj.comm_bytes, obj.comm_messages) == \
        (arr.makespan, arr.comm_bytes, arr.comm_messages)


@pytest.mark.parametrize("crash", [False, True])
def test_object_graph_is_restored_after_a_migrating_run(crash):
    """A plan's placement and priorities live with the run: ``Task.node`` /
    ``Task.priority`` are never written, so there is nothing to restore —
    also when the run raises after the plan was applied."""
    g = build_cholesky_graph(N, B, DIST)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    before = [(t.node, t.priority) for t in g.tasks]
    if crash:
        faults = FaultPlan(crashes=[WorkerCrash(node=0, after_tasks=1)])
        with pytest.raises(SimulatedFailure):
            simulate(g, m, scheduler="heft-lookahead", faults=faults)
    else:
        simulate(g, m, scheduler="heft-lookahead")
    assert [(t.node, t.priority) for t in g.tasks] == before


# --------------------------------------------------------------------------
# the work-stealing queue discipline
# --------------------------------------------------------------------------

class TestWorkStealingQueues:
    def test_lifo_own_then_fifo_steal(self):
        q = WorkStealingQueues(num_nodes=1, cores=2)
        # core 0 gets tasks 0, 2; core 1 gets 1, 3
        for t in range(4):
            q.push(0, t, 0.0)
        assert q.total() == 4
        assert q.pop(0) == 2   # core 0's turn: LIFO of [0, 2]
        assert q.pop(0) == 3   # core 1's turn: LIFO of [1, 3]
        assert q.pop(0) == 0   # core 0 again
        assert q.pop(0) == 1
        assert q.pop(0) is None
        assert q.total() == 0

    def test_steals_from_longest_sibling(self):
        q = WorkStealingQueues(num_nodes=1, cores=2)
        q.push(0, 1, 0.0)  # -> core 1
        q.push(0, 3, 0.0)  # -> core 1
        assert q.pop(0) == 1  # core 0 empty: steal FIFO end of core 1
        assert q.pop(0) == 3

    def test_depth_is_per_node(self):
        q = WorkStealingQueues(num_nodes=2, cores=2)
        q.push(0, 0, 0.0)
        q.push(1, 1, 0.0)
        q.push(1, 2, 0.0)
        assert q.depth(0) == 1
        assert q.depth(1) == 2
        assert q.total() == 3


# --------------------------------------------------------------------------
# the MC-PLACE analyzer rule
# --------------------------------------------------------------------------

def _placement(*policies):
    """MC-PLACE findings of ``policies`` on an SBC(4) Cholesky graph."""
    cg = compile_graph(build_cholesky_graph(N, B, DIST))
    case = ("sbc4", cg, laptop(nodes=DIST.num_nodes, cores=2))
    _results, rep = check_policies(policies, cases=[case])
    return rep.by_rule("MC-PLACE")


class TestPlacementRule:
    def test_zoo_is_clean(self):
        assert not _placement(*sorted(POLICIES))

    def test_undeclared_migration_is_flagged(self):
        class Sneaky(SchedulerInterface):
            name = "sneaky"
            description = "migrates without declaring it"
            # migrates stays False

            def plan(self, view):
                moved = [(n + 1) % view.num_nodes for n in view.node]
                return SchedulePlan(assignment=moved)

        assert _placement(Sneaky())

    def test_declared_migration_passes_in_range(self):
        class Honest(SchedulerInterface):
            name = "honest"
            description = "migrates and says so"
            migrates = True

            def plan(self, view):
                moved = [(n + 1) % view.num_nodes for n in view.node]
                return SchedulePlan(assignment=moved)

        assert not _placement(Honest())

    def test_out_of_range_flagged_even_when_migrating(self):
        class Offworld(SchedulerInterface):
            name = "offworld2"
            description = "assigns outside the machine"
            migrates = True

            def plan(self, view):
                return SchedulePlan(
                    assignment=[view.num_nodes] * view.n_tasks)

        assert _placement(Offworld())


# --------------------------------------------------------------------------
# ranking sanity: the tournament's headline orderings hold at small N
# --------------------------------------------------------------------------

def test_policies_differentiate_makespan():
    """The zoo must actually explore the schedule space: at least three
    distinct makespans across policies, with fork-join strictly worse
    than the default (the paper's asynchronous-beats-synchronized
    claim, restated per policy)."""
    g = build_cholesky_graph(12, B, DIST)
    m = laptop(nodes=DIST.num_nodes, cores=2)
    spans = {name: simulate(g, m, scheduler=name).makespan
             for name in POLICIES}
    assert len(set(spans.values())) >= 3
    assert spans["fork-join"] > spans["critical-path"]
