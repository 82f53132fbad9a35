"""Tests for simulator tracing and critical-path analysis."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import bora, laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import OPERATIONS, build_cholesky_graph
from repro.obs.timeline import critical_path_breakdown, iteration_profile
from repro.runtime import FaultPlan, simulate
from repro.runtime.simulator import simulate_compiled
from repro.schedulers import POLICIES

from .strategies import distributions, fault_plans, machines


@pytest.fixture
def traced_run():
    g = build_cholesky_graph(10, 32, SymmetricBlockCyclic(4))
    rep = simulate(g, laptop(nodes=6, cores=2), trace=True)
    return g, rep


class TestTracing:
    def test_trace_covers_all_tasks(self, traced_run):
        g, rep = traced_run
        assert len(rep.trace) == len(g.tasks)
        ids = {t.task_id for t in rep.trace}
        assert ids == set(range(len(g.tasks)))

    def test_trace_timing_invariants(self, traced_run):
        _g, rep = traced_run
        for t in rep.trace:
            assert 0.0 <= t.ready <= t.start <= t.end <= rep.makespan + 1e-12

    def test_transfers_match_message_count(self, traced_run):
        _g, rep = traced_run
        assert len(rep.transfers) == rep.comm_messages

    def test_transfer_timing_invariants(self, traced_run):
        _g, rep = traced_run
        for tr in rep.transfers:
            assert tr.submitted <= tr.started <= tr.delivered
            assert tr.queue_wait >= 0.0
            assert tr.total >= 0.0

    def test_no_trace_by_default(self):
        g = build_cholesky_graph(5, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2))
        assert rep.trace is None and rep.transfers is None


class TestCriticalPathBreakdown:
    def test_segments_sum_to_makespan(self, traced_run):
        """compute + transfer segments reconstruct the makespan (worker
        waits overlap the freeing task's compute and are informational)."""
        g, rep = traced_run
        bd = critical_path_breakdown(g, rep)
        total = bd.compute + bd.xfer_queue + bd.xfer_wire
        assert total == pytest.approx(rep.makespan, rel=1e-9)

    def test_path_is_dependency_chain(self, traced_run):
        g, rep = traced_run
        bd = critical_path_breakdown(g, rep)
        assert len(bd.path) == bd.hops
        # Path is listed sink-first: each task ended before the next started.
        events = {t.task_id: t for t in rep.trace}
        for later, earlier in zip(bd.path, bd.path[1:]):
            assert events[earlier].end <= events[later].start + 1e-12
        # First entry is the last-finishing task.
        last = max(rep.trace, key=lambda t: t.end)
        assert bd.path[0] == last.task_id

    def test_kinds_counted(self, traced_run):
        g, rep = traced_run
        bd = critical_path_breakdown(g, rep)
        assert sum(bd.kinds.values()) == bd.hops
        assert "POTRF" in bd.kinds  # the spine always crosses the POTRFs

    def test_communication_fraction_bounds(self, traced_run):
        g, rep = traced_run
        bd = critical_path_breakdown(g, rep)
        assert 0.0 <= bd.communication_fraction < 1.0

    def test_requires_trace(self):
        g = build_cholesky_graph(5, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2))
        with pytest.raises(ValueError):
            critical_path_breakdown(g, rep)

    @pytest.mark.parametrize("dist", [SymmetricBlockCyclic(4), BlockCyclic2D(2, 3)],
                             ids=["sbc4", "2dbc-2x3"])
    def test_segments_sum_to_makespan_under_a_migrating_policy(self, dist):
        # heft-lookahead moves tasks off their owners; read from the graph,
        # placement missed the moved tasks' inputs and worker hand-offs
        # (SBC(4): 49.3 % of the makespan over 12 hops).
        g = build_cholesky_graph(8, 32, dist)
        rep = simulate(g, laptop(nodes=6, cores=2), scheduler="heft-lookahead",
                       trace=True)
        assert any(e.node != g.tasks[e.task_id].node for e in rep.trace)
        bd = critical_path_breakdown(g, rep)
        total = bd.compute + bd.xfer_queue + bd.xfer_wire
        assert total == pytest.approx(rep.makespan, rel=1e-9)
        assert bd.hops == 15

    # A task a barrier held starts when the last task of the iteration
    # before it ends, after its inputs arrived (N = 8 SBC(4): 54.1 % of the
    # makespan when the walk followed its inputs); a tree-relayed tile
    # crosses several hops (96.3 % charging the last one); a retransmission
    # leaves a timeout after its lost attempt (loss 0.3: 4.9 % charging the
    # retransmission alone).
    @pytest.mark.parametrize("N, b, dist, machine, options", [
        (8, 32, SymmetricBlockCyclic(4), laptop(6, 2), {"synchronized": True}),
        (8, 32, BlockCyclic2D(2, 3), laptop(6, 2), {"synchronized": True}),
        (12, 32, SymmetricBlockCyclic(4), laptop(6, 2), {"synchronized": True}),
        (12, 32, BlockCyclic2D(2, 3), laptop(6, 2), {"synchronized": True}),
        (8, 500, BlockCyclic2D(7, 4), bora(28), {"broadcast": "tree"}),
        (10, 32, SymmetricBlockCyclic(4), laptop(6, 2),
         {"faults": FaultPlan(seed=0, loss_rate=0.05)}),
        (10, 32, SymmetricBlockCyclic(4), laptop(6, 2),
         {"faults": FaultPlan(seed=0, loss_rate=0.3)}),
    ], ids=["barrier-sbc4-8", "barrier-2dbc-2x3-8", "barrier-sbc4-12",
            "barrier-2dbc-2x3-12", "tree-2dbc-7x4", "loss-0.05", "loss-0.3"])
    def test_segments_sum_to_makespan_through_barriers_relays_and_losses(
            self, N, b, dist, machine, options):
        g = build_cholesky_graph(N, b, dist)
        rep = simulate(g, machine, trace=True, **options)
        bd = critical_path_breakdown(g, rep)
        total = bd.compute + bd.xfer_queue + bd.xfer_wire
        assert total == pytest.approx(rep.makespan, rel=1e-9)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), op=st.sampled_from(["cholesky", "lu"]),
       dist=distributions(), N=st.integers(1, 8), b=st.sampled_from([32, 500]),
       policy=st.sampled_from(sorted(POLICIES)),
       broadcast=st.sampled_from(["direct", "tree"]), synchronized=st.booleans())
def test_breakdown_is_the_makespan_on_both_graph_planes(
        data, op, dist, N, b, policy, broadcast, synchronized):
    """On any unaggregated run the path accounts for the whole makespan,
    and the column sink's graph on the core's trace breaks down, field for
    field, as the object graph (lowered) on the oracle's trace."""
    P = dist.num_nodes
    # A lost message is retried end to end and each hop of its route rolls
    # the loss, so a route of h hops at loss 0.3 takes ~0.7**-h attempts (a
    # 48-node chain: ~2e7); wider layouts keep the scalar network.
    machine = data.draw(machines(P)) if P <= 16 else bora(P)
    options = dict(machine=machine, synchronized=synchronized,
                   broadcast=broadcast, faults=data.draw(fault_plans(P)),
                   scheduler=policy, trace=True)
    build, compile_ = OPERATIONS[op]
    cg = compile_(N, b, dist)
    rep = simulate_compiled(cg, **options)
    bd = critical_path_breakdown(cg, rep)
    total = bd.compute + bd.xfer_queue + bd.xfer_wire
    assert total == pytest.approx(rep.makespan, rel=1e-9)
    g = build(N, b, dist)
    assert asdict(critical_path_breakdown(g, simulate(g, **options))) == asdict(bd)


class TestIterationProfile:
    def test_monotone_completion(self, traced_run):
        g, rep = traced_run
        prof = iteration_profile(g, rep)
        assert [it for it, _ in prof] == sorted({t.iteration for t in g.tasks})
        # The Cholesky panels complete in order.
        times = [t for _, t in prof]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(rep.makespan)

    def test_requires_trace(self):
        g = build_cholesky_graph(5, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2))
        with pytest.raises(ValueError):
            iteration_profile(g, rep)
