"""Failure-injection tests: the runtimes must fail loudly, not wedge."""

import time

import numpy as np
import pytest

from repro.config import bora, laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import (
    DataKey,
    GraphBuilder,
    TaskGraph,
    build_cholesky_graph,
    compile_graph,
)
from repro.obs import Recorder
from repro.runtime import (
    DeadWorkerError,
    ExecutionTimeout,
    FaultPlan,
    InitialDataSpec,
    LinkDegradation,
    RetryPolicy,
    SimulatedFailure,
    SlowdownWindow,
    WorkerCrash,
    execute_distributed,
    execute_graph,
    simulate,
)
from repro.runtime.execution import KERNEL_DISPATCH
from repro.runtime.simulator import simulate_compiled
from repro.tiles import TileGrid


def poisoned_graph(b=16):
    """A graph whose single task uses an unregistered kernel kind."""
    g = TaskGraph(b=b)
    bld = GraphBuilder(g)
    bld.declare("A", 0, 0, 0, "spd")
    g.add_task("EXPLODE", 0, (0,), (DataKey("A", 0, 0, 0),),
               DataKey("A", 0, 0, 1), 1.0, 0)
    return g


class TestLocalFailures:
    def test_unknown_kernel_raises_sequential(self):
        g = poisoned_graph()
        spec = InitialDataSpec(TileGrid(n=16, b=16), seed=0)
        with pytest.raises(ValueError, match="EXPLODE"):
            execute_graph(g, spec)

    def test_unknown_kernel_raises_threaded(self):
        g = poisoned_graph()
        spec = InitialDataSpec(TileGrid(n=16, b=16), seed=0)
        with pytest.raises(ValueError, match="EXPLODE"):
            execute_graph(g, spec, num_threads=4)

    def test_numerical_failure_propagates(self):
        """A non-SPD tile makes POTRF raise; the executor surfaces it."""
        g = build_cholesky_graph(2, 8, BlockCyclic2D(1, 1))

        class BadSpec(InitialDataSpec):
            def materialize(self, key, descriptor):
                t = super().materialize(key, descriptor)
                if key.i == key.j == 0:
                    return -np.eye(t.shape[0])  # negative definite
                return t

        with pytest.raises(np.linalg.LinAlgError):
            execute_graph(g, BadSpec(TileGrid(n=16, b=8), seed=0))


class TestDistributedFailures:
    def test_worker_error_reported_with_node_id(self):
        g = poisoned_graph()
        spec = InitialDataSpec(TileGrid(n=16, b=16), seed=0)
        with pytest.raises(RuntimeError, match="node 0 failed"):
            execute_distributed(g, spec, timeout=60)

    def test_multi_node_run_with_one_failing_kernel(self):
        """A failure on one node must not hang the gather."""
        g = build_cholesky_graph(6, 16, SymmetricBlockCyclic(3))
        # Poison one GEMM task's kind after construction.
        victim = next(t for t in g.tasks if t.kind == "GEMM")
        victim.kind = "EXPLODE"
        spec = InitialDataSpec(TileGrid(n=96, b=16), seed=0)
        with pytest.raises(RuntimeError, match="failed"):
            execute_distributed(g, spec, timeout=60)


class TestSimulatorRobustness:
    def test_kernel_dispatch_is_not_consulted(self):
        """The simulator times tasks without executing kernels, so unknown
        kinds simulate fine (durations come from flops) — by design."""
        g = poisoned_graph()
        rep = simulate(g, laptop(nodes=1, cores=1))
        assert rep.num_tasks == 1

    def test_dispatch_registry_unchanged_by_failures(self):
        before = set(KERNEL_DISPATCH)
        g = poisoned_graph()
        spec = InitialDataSpec(TileGrid(n=16, b=16), seed=0)
        with pytest.raises(ValueError):
            execute_graph(g, spec)
        assert set(KERNEL_DISPATCH) == before


def _fault_plan():
    return FaultPlan(
        seed=42,
        slowdowns=(SlowdownWindow(node=2, factor=3.0),
                   SlowdownWindow(node=0, factor=1.5, start=0.0, end=0.01)),
        links=(LinkDegradation(factor=4.0, src=1, dst=-1),),
        loss_rate=0.1,
    )


class TestFaultPlanValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=-0.1)

    def test_duplicate_crash_rejected(self):
        with pytest.raises(ValueError, match="more than one crash"):
            FaultPlan(crashes=(WorkerCrash(0, 1), WorkerCrash(0, 2)))

    def test_speedups_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            SlowdownWindow(node=0, factor=0.5)
        with pytest.raises(ValueError, match=">= 1"):
            LinkDegradation(factor=0.9)

    def test_retry_policy_delay_backs_off(self):
        r = RetryPolicy(timeout=0.5, backoff=2.0)
        assert r.delay(0) == 0.5
        assert r.delay(3) == 4.0


class TestFaultPlanSimulator:
    """Seeded plans are deterministic and engine-independent."""

    def _setup(self):
        dist = SymmetricBlockCyclic(4)
        g = build_cholesky_graph(10, 32, dist)
        cg = compile_graph(g)
        m = laptop(nodes=dist.num_nodes, cores=2)
        return g, cg, m

    def test_same_seed_bit_identical_across_engines(self):
        g, cg, m = self._setup()
        plan = _fault_plan()
        ref = simulate(g, m, faults=plan)
        fast = simulate_compiled(cg, m, faults=plan)
        assert ref.makespan == fast.makespan
        assert ref.comm_bytes == fast.comm_bytes
        assert ref.comm_messages == fast.comm_messages
        # And the run itself is repeatable (fresh loss counters per run).
        again = simulate(g, m, faults=plan)
        assert again.makespan == ref.makespan
        assert again.comm_messages == ref.comm_messages

    def test_lost_aggregated_message_redelivers_every_tile(self):
        """A retransmitted message carries all the tiles it aggregated;
        piggy-backing it on a queued message must keep every one of them
        (appending only the first deadlocked both engines: "executed
        2441/2600 tasks")."""
        dist = SymmetricBlockCyclic(4)
        g = build_cholesky_graph(24, 512, dist)
        m = bora(nodes=dist.num_nodes)
        plan = FaultPlan(seed=0, loss_rate=0.2)
        ref = simulate(g, m, aggregate=True, faults=plan)
        fast = simulate_compiled(compile_graph(g), m, aggregate=True,
                                 faults=plan)
        assert ref.num_tasks == fast.num_tasks == len(g.tasks)
        assert ref.makespan == fast.makespan
        assert ref.comm_bytes == fast.comm_bytes
        assert ref.comm_messages == fast.comm_messages

    def test_different_seed_changes_losses(self):
        g, _cg, m = self._setup()
        a = simulate(g, m, faults=FaultPlan(seed=1, loss_rate=0.2))
        b = simulate(g, m, faults=FaultPlan(seed=2, loss_rate=0.2))
        clean = simulate(g, m)
        # Lost deliveries are retransmitted as fresh messages.
        assert a.comm_messages > clean.comm_messages
        assert b.comm_messages > clean.comm_messages
        assert (a.comm_messages, a.makespan) != (b.comm_messages, b.makespan)

    def test_slowdown_stretches_makespan(self):
        g, _cg, m = self._setup()
        slow = simulate(g, m, faults=FaultPlan(
            slowdowns=(SlowdownWindow(node=0, factor=5.0),)))
        clean = simulate(g, m)
        assert slow.makespan > clean.makespan
        assert slow.comm_bytes == clean.comm_bytes  # faults move time, not data

    def test_crash_diagnostic_identical_on_both_engines(self):
        g, cg, m = self._setup()
        plan = FaultPlan(crashes=(WorkerCrash(node=1, after_tasks=4),))
        with pytest.raises(SimulatedFailure, match="node 1 after 4 tasks") as e1:
            simulate(g, m, faults=plan)
        with pytest.raises(SimulatedFailure, match="never ran") as e2:
            simulate_compiled(cg, m, faults=plan)
        assert str(e1.value) == str(e2.value)

    def test_a_crashed_run_keeps_every_started_task(self):
        """A caller's recorder holds the trace of a run that raises: every
        task that started, every message delivered and every fault, the
        same on both engines (the core rebuilds its rows from the
        timeline before the failure propagates)."""
        g, cg, m = self._setup()
        plan = FaultPlan(
            seed=3, loss_rate=0.1,
            slowdowns=(SlowdownWindow(node=0, factor=2.0),),
            crashes=(WorkerCrash(node=1, after_tasks=4),))
        recs = []
        for run, graph in ((simulate, g), (simulate_compiled, cg)):
            rec = Recorder()
            with pytest.raises(SimulatedFailure, match="node 1 after 4 tasks"):
                run(graph, m, faults=plan, recorder=rec)
            recs.append(rec)
        ref, core = recs
        assert 0 < len(ref.task_events) < len(g.tasks)
        assert ref.transfer_events and {"crash", "loss"} <= {
            e.op for e in ref.fault_events}
        assert core.task_events == ref.task_events
        assert core.transfer_events == ref.transfer_events
        assert core.fault_events == ref.fault_events
        assert core.metrics.as_dict() == ref.metrics.as_dict()

    def test_fault_events_recorded(self):
        g, _cg, m = self._setup()
        rec = Recorder()
        simulate(g, m, faults=_fault_plan(), recorder=rec)
        ops = {e.op for e in rec.fault_events}
        assert "slowdown" in ops and "degraded" in ops
        assert "loss" in ops and "retry" in ops
        # every loss is eventually retried
        n_loss = sum(1 for e in rec.fault_events if e.op == "loss")
        n_retry = sum(1 for e in rec.fault_events if e.op == "retry")
        assert n_retry == n_loss > 0


    @pytest.mark.parametrize("engine", ["oracle", "core"])
    def test_a_retransmission_starts_after_it_is_submitted(self, engine):
        """The delivered attempt of a lost message is a message of its own:
        its ``started`` is its own first quantum.  Both engines kept the
        lost attempt's, keyed by (tile, destination): 32 of 150 events
        started before they were submitted and ``net.queue.seconds``
        reached -4.55 ms."""
        dist = SymmetricBlockCyclic(4)
        m = bora(nodes=dist.num_nodes)
        g = build_cholesky_graph(12, 512, dist)
        run = simulate if engine == "oracle" else simulate_compiled
        rep = run(g if engine == "oracle" else compile_graph(g), m,
                  trace=True, faults=FaultPlan(seed=1, loss_rate=0.2))
        assert any(e.op == "loss" for e in rep.obs.fault_events)
        for e in rep.transfers:
            assert e.submitted <= e.started <= e.delivered, e
        assert rep.obs.metrics.get("net.queue.seconds").min >= 0


class TestDistributedFaultInjection:
    def _graph(self, N=6, b=16, r=3):
        dist = SymmetricBlockCyclic(r)
        return build_cholesky_graph(N, b, dist), TileGrid(n=N * b, b=b)

    def test_worker_crash_raises_diagnostic_quickly(self):
        g, grid = self._graph()
        plan = FaultPlan(crashes=(WorkerCrash(node=1, after_tasks=3),))
        rec = Recorder()
        t0 = time.monotonic()
        with pytest.raises(DeadWorkerError, match="node 1") as exc:
            execute_distributed(g, InitialDataSpec(grid, seed=7), timeout=60,
                                faults=plan, recorder=rec)
        assert time.monotonic() - t0 < 30.0  # diagnosed, not wedged
        msg = str(exc.value)
        assert "exit code 17" in msg
        assert "still owed final tiles" in msg
        assert any(e.op == "crash" and e.node == 1 for e in rec.fault_events)

    def test_loss_is_recovered_by_retransmission(self):
        g, grid = self._graph()
        plan = FaultPlan(seed=5, loss_rate=0.3)
        rep = execute_distributed(
            g, InitialDataSpec(grid, seed=7), timeout=120, faults=plan,
            retry=RetryPolicy(timeout=0.1),
        )
        assert rep.total_retransmits > 0
        # Logical traffic still equals the analytic prediction: the
        # retransmitted bytes are counted separately.
        from repro.comm import count_communications

        assert rep.total_bytes == count_communications(g).total_bytes

    def test_timeout_names_unreported_nodes(self):
        g, grid = self._graph(N=4)

        class StallSpec(InitialDataSpec):
            def materialize(self, key, descriptor):
                if key.i == key.j == 0:
                    time.sleep(3600)
                return super().materialize(key, descriptor)

        with pytest.raises(ExecutionTimeout, match="never reported") as exc:
            execute_distributed(g, StallSpec(grid, seed=0), timeout=3.0)
        assert "tasks done" in str(exc.value)

    def test_error_path_salvages_partial_trace(self):
        g = build_cholesky_graph(6, 16, SymmetricBlockCyclic(3))
        victim = max((t for t in g.tasks if t.kind == "GEMM"),
                     key=lambda t: t.id)
        victim.kind = "EXPLODE"
        rec = Recorder()
        with pytest.raises(RuntimeError, match="failed"):
            execute_distributed(g, InitialDataSpec(TileGrid(n=96, b=16), seed=0),
                                timeout=60, recorder=rec)
        # The failing worker ships the events it gathered before dying.
        assert len(rec.task_events) > 0
