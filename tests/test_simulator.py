"""Tests for the discrete-event cluster simulator."""

import pytest

from repro.comm import count_communications
from repro.config import KernelModel, MachineSpec, NetworkSpec, bora, laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import (
    build_cholesky_graph,
    build_cholesky_graph_25d,
    build_posv_graph,
    build_potri_graph,
    set_critical_path_priorities,
)
from repro.distributions import RowCyclic1D
from repro.runtime.simulator import NetworkSim, Transfer, simulate


class TestNetworkSim:
    def spec(self):
        return NetworkSpec(bandwidth=1e9, latency=1e-6)

    def net(self, n, quantum=10**9):
        # Default to a huge quantum so messages are single chunks.
        return NetworkSim(self.spec(), n, quantum=quantum)

    def test_single_transfer_timing(self):
        net = self.net(2)
        quantum = net.submit(Transfer("k", 0, 1, 10**9, 1.0), now=0.0)
        assert quantum is not None
        tr, _egress_done, _delivery, final = quantum
        assert final
        assert tr.end == pytest.approx(1.0 + 1e-6)

    def test_egress_serialization(self):
        net = self.net(3)
        _tr, c1_done, _d, _f = net.submit(Transfer("a", 0, 1, 10**9, 1.0), now=0.0)
        c2 = net.submit(Transfer("b", 0, 2, 10**9, 1.0), now=0.0)
        assert c2 is None  # queued behind the in-flight quantum
        _tr, nxt_done, _d, _f = net.egress_freed(0, c1_done)
        assert nxt_done >= c1_done

    def test_priority_order_in_queue(self):
        net = self.net(4)
        _tr, c1_done, _d, _f = net.submit(Transfer("a", 0, 1, 10**6, 1.0), now=0.0)
        net.submit(Transfer("low", 0, 2, 10**6, 1.0), now=0.0)
        net.submit(Transfer("high", 0, 3, 10**6, 9.0), now=0.0)
        nxt, _done, _d, _f = net.egress_freed(0, c1_done)
        assert nxt.key == "high"

    def serve_all(self, net, t):
        """Every quantum ``net`` serves from node 0 once its port frees at
        ``t``, in order."""
        served = []
        while True:
            quantum = net.egress_freed(0, t)
            if quantum is None:
                return served
            served.append(quantum)
            t = quantum[1]

    def test_quantum_interleaving(self):
        """A high-priority message overtakes a bulk one between quanta."""
        net = NetworkSim(self.spec(), 3, quantum=10**6)
        _tr, c1_done, _d, c1_final = net.submit(
            Transfer("bulk", 0, 1, 4 * 10**6, 1.0), now=0.0)
        assert not c1_final
        net.submit(Transfer("urgent", 0, 2, 10**6, 9.0), now=0.0)
        nxt, nxt_done, _d, nxt_final = net.egress_freed(0, c1_done)
        assert nxt.key == "urgent" and nxt_final
        # The bulk message finishes after its remaining three quanta.
        rest = self.serve_all(net, nxt_done)
        last, _done, _d, last_final = rest[-1]
        assert last_final and last.key == "bulk"
        assert len(rest) == 3

    def test_round_robin_among_equal_priorities(self):
        """Two equal-priority messages pending together interleave quanta."""
        net = NetworkSim(self.spec(), 4, quantum=10**6)
        _tr, c0_done, _d, _f = net.submit(
            Transfer("head", 0, 3, 10**6, 1.0), now=0.0)
        net.submit(Transfer("a", 0, 1, 2 * 10**6, 1.0), now=0.0)
        net.submit(Transfer("b", 0, 2, 2 * 10**6, 1.0), now=0.0)
        order = [tr.key for tr, _done, _d, _f in self.serve_all(net, c0_done)]
        assert order == ["a", "b", "a", "b"]

    def test_ingress_contention_delays_delivery_not_sender(self):
        net = self.net(3)
        _tr, c1_done, c1_delivery, _f = net.submit(
            Transfer("a", 0, 2, 10**9, 1.0), now=0.0)
        _tr, c2_done, c2_delivery, _f = net.submit(
            Transfer("b", 1, 2, 10**9, 1.0), now=0.0)
        # Both senders push immediately (disjoint egress ports)...
        assert c1_done == c2_done
        # ...but the shared ingress port serializes the deliveries.
        assert c2_delivery >= c1_delivery + 1.0 - 1e-9

    def test_idle_ingress_delivers_at_wire_speed(self):
        net = self.net(2)
        _tr, c1_done, c1_delivery, _f = net.submit(
            Transfer("a", 0, 1, 10**9, 1.0), now=0.0)
        assert c1_delivery == c1_done

    def test_disjoint_pairs_parallel(self):
        net = self.net(4)
        _tr, c1_done, _d, _f = net.submit(Transfer("a", 0, 1, 10**9, 1.0), now=0.0)
        _tr, c2_done, _d, _f = net.submit(Transfer("b", 2, 3, 10**9, 1.0), now=0.0)
        assert c1_done == c2_done

    def test_latency_charged_once_per_message(self):
        spec = NetworkSpec(bandwidth=1e9, latency=0.5)
        net = NetworkSim(spec, 2, quantum=10**6)
        _tr, t, _d, _f = net.submit(Transfer("a", 0, 1, 2 * 10**6, 1.0), now=0.0)
        assert t == pytest.approx(0.5 + 1e-3)
        _tr, ch2_done, _d, ch2_final = net.egress_freed(0, t)
        assert ch2_final
        assert ch2_done == pytest.approx(t + 1e-3)  # no second latency

    def test_rejects_self_transfer(self):
        net = self.net(2)
        with pytest.raises(ValueError):
            net.submit(Transfer("a", 1, 1, 10, 1.0), now=0.0)

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            NetworkSim(self.spec(), 2, quantum=0)

    def test_byte_accounting(self):
        net = self.net(2)
        net.submit(Transfer("a", 0, 1, 123, 1.0), now=0.0)
        assert net.total_bytes == 123 and net.total_messages == 1

    def test_aggregation_piggyback_raises_priority_in_heap(self):
        """Regression: an urgent tile coalesced into a queued bulk message
        must pull that message ahead of other pending traffic, not leave
        the heap entry at its stale (lower) priority."""
        net = NetworkSim(self.spec(), 4, quantum=10**9, aggregate=True)
        _tr, c1_done, _d, _f = net.submit(
            Transfer("head", 0, 3, 10**6, 5.0), now=0.0)
        net.submit(Transfer("bulk", 0, 1, 10**6, 1.0), now=0.0)
        net.submit(Transfer("mid", 0, 2, 10**6, 3.0), now=0.0)
        # Urgent tile to the same destination as "bulk": piggy-backs and
        # raises the queued message's priority above "mid".
        net.submit(Transfer("urgent", 0, 1, 10**6, 9.0), now=0.0)
        served = [tr.keys[0] for tr, _done, _d, _f in self.serve_all(net, c1_done)]
        assert served == ["bulk", "mid"], served
        # The aggregated message carried both tiles and was counted once.
        assert net.total_messages == 3

    def test_aggregation_equal_priority_does_not_duplicate(self):
        """Piggy-backing at non-raising priority must not re-push (the
        message would otherwise be served twice)."""
        net = NetworkSim(self.spec(), 3, quantum=10**9, aggregate=True)
        _tr, c1_done, _d, _f = net.submit(
            Transfer("head", 0, 2, 10**6, 5.0), now=0.0)
        net.submit(Transfer("bulk", 0, 1, 10**6, 2.0), now=0.0)
        net.submit(Transfer("same", 0, 1, 10**6, 2.0), now=0.0)
        served = [tuple(tr.keys) for tr, _done, _d, _f in self.serve_all(net, c1_done)]
        assert served == [("bulk", "same")]


class TestSimulate:
    def small_machine(self, P):
        return laptop(nodes=P, cores=2)

    def test_transferred_bytes_match_counter(self, any_dist):
        g = build_cholesky_graph(12, 32, any_dist)
        rep = simulate(g, self.small_machine(any_dist.num_nodes))
        assert rep.comm_bytes == count_communications(g).total_bytes
        assert rep.comm_messages == count_communications(g).num_messages

    def test_all_tasks_execute(self):
        g = build_cholesky_graph(10, 32, SymmetricBlockCyclic(4))
        rep = simulate(g, self.small_machine(6))
        assert rep.num_tasks == len(g.tasks)

    def test_busy_time_bounded_by_makespan(self):
        g = build_cholesky_graph(10, 32, BlockCyclic2D(2, 2))
        m = self.small_machine(4)
        rep = simulate(g, m)
        for busy in rep.busy_time:
            assert busy <= rep.makespan * m.cores + 1e-9
        assert 0 < rep.avg_utilization <= 1.0

    def test_makespan_at_least_critical_work(self):
        """Makespan >= total flops / total workers (work conservation)."""
        g = build_cholesky_graph(12, 32, BlockCyclic2D(2, 2))
        m = self.small_machine(4)
        rep = simulate(g, m)
        lower = sum(t.flops for t in g.tasks) / (
            m.nodes * m.cores * m.kernel.rate(32)
        )
        assert rep.makespan >= lower * 0.999

    def test_more_bandwidth_is_never_slower(self):
        g = build_cholesky_graph(14, 64, SymmetricBlockCyclic(4))
        slow = MachineSpec(nodes=6, cores=2, network=NetworkSpec(bandwidth=5e7),
                           kernel=KernelModel(peak_flops=5e9))
        fast = MachineSpec(nodes=6, cores=2, network=NetworkSpec(bandwidth=5e9),
                           kernel=KernelModel(peak_flops=5e9))
        assert simulate(g, fast).makespan <= simulate(g, slow).makespan + 1e-9

    def test_synchronized_never_faster(self):
        g = build_cholesky_graph(12, 64, SymmetricBlockCyclic(4))
        m = self.small_machine(6)
        free = simulate(g, m)
        sync = simulate(g, m, synchronized=True)
        assert sync.makespan >= free.makespan - 1e-9

    def test_critical_path_priorities_run(self):
        g = build_cholesky_graph(10, 32, SymmetricBlockCyclic(4))
        m = self.small_machine(6)
        set_critical_path_priorities(g, lambda t: m.kernel.duration(t.flops, 32))
        rep = simulate(g, m, auto_priorities=False)
        assert rep.num_tasks == len(g.tasks)

    def test_25d_graph_simulates(self):
        d = TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 2)
        g = build_cholesky_graph_25d(10, 32, d)
        rep = simulate(g, self.small_machine(d.num_nodes))
        assert rep.comm_bytes == count_communications(g).total_bytes

    def test_posv_graph_simulates(self):
        g = build_posv_graph(8, 32, SymmetricBlockCyclic(4), RowCyclic1D(6))
        rep = simulate(g, self.small_machine(6))
        assert rep.comm_bytes == count_communications(g).total_bytes

    def test_potri_remap_graph_simulates(self):
        g = build_potri_graph(8, 32, SymmetricBlockCyclic(4),
                              trtri_dist=BlockCyclic2D(3, 2))
        rep = simulate(g, self.small_machine(6))
        assert rep.comm_bytes == count_communications(g).total_bytes

    def test_machine_too_small_rejected(self):
        g = build_cholesky_graph(8, 32, SymmetricBlockCyclic(4))
        with pytest.raises(ValueError):
            simulate(g, self.small_machine(2))

    def test_empty_graph_rejected(self):
        from repro.graph import TaskGraph

        with pytest.raises(ValueError):
            simulate(TaskGraph(b=8), self.small_machine(2))

    def test_gflops_per_node_definition(self):
        g = build_cholesky_graph(8, 32, BlockCyclic2D(2, 2))
        m = self.small_machine(4)
        rep = simulate(g, m)
        assert rep.gflops_per_node == pytest.approx(
            rep.total_flops / (rep.makespan * 4) / 1e9
        )


class TestSimulatedPerformanceShape:
    """Coarse sanity on the performance model used for Figures 9-12."""

    def test_sbc_beats_2dbc_at_moderate_size(self):
        """The headline claim at simulation scale: same node counts,
        communication-bound regime, SBC is faster."""
        N, b = 36, 500
        sbc = SymmetricBlockCyclic(7)  # P = 21
        bc = BlockCyclic2D(7, 3)  # P = 21
        g_sbc = build_cholesky_graph(N, b, sbc)
        g_bc = build_cholesky_graph(N, b, bc)
        t_sbc = simulate(g_sbc, bora(21)).makespan
        t_bc = simulate(g_bc, bora(21)).makespan
        assert t_sbc < t_bc

    def test_perf_per_node_grows_with_matrix_size(self):
        b = 500
        d = SymmetricBlockCyclic(6)
        perfs = [
            simulate(build_cholesky_graph(N, b, d), bora(15)).gflops_per_node
            for N in (10, 25, 50)
        ]
        assert perfs[0] < perfs[1] < perfs[2]

    def test_perf_below_starpu_peak(self):
        m = bora(15)
        g = build_cholesky_graph(40, 500, SymmetricBlockCyclic(6))
        rep = simulate(g, m)
        assert rep.gflops_per_node < m.cores * m.kernel.peak_flops / 1e9
