"""Tests for the binomial-tree broadcast mode of the simulator."""

import pytest

from repro.comm import count_communications
from repro.config import MachineSpec, NetworkSpec, laptop
from repro.distributions import BlockCyclic2D, RowCyclic1D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph, build_posv_graph
from repro.runtime import simulate


class TestTreeBroadcast:
    def test_volume_is_unchanged(self, any_dist):
        """Tree forwarding relays the same messages: bytes are identical."""
        g = build_cholesky_graph(10, 32, any_dist)
        m = laptop(nodes=any_dist.num_nodes, cores=2)
        direct = simulate(g, m)
        tree = simulate(g, m, broadcast="tree")
        assert direct.comm_bytes == tree.comm_bytes
        assert direct.comm_messages == tree.comm_messages
        assert tree.comm_bytes == count_communications(g).total_bytes

    def test_all_tasks_complete(self):
        g = build_cholesky_graph(12, 32, SymmetricBlockCyclic(4))
        rep = simulate(g, laptop(nodes=6, cores=2), broadcast="tree")
        assert rep.num_tasks == len(g.tasks)

    def test_tree_helps_under_tight_bandwidth(self):
        """Splitting a fan-out across forwarders relieves the producer's
        port, so tree broadcasts win when egress bandwidth binds (the
        collective-detection optimization §V-C says Chameleon lacks)."""
        from repro.config import bora

        g = build_cholesky_graph(40, 500, BlockCyclic2D(7, 4))
        m = bora(28)
        direct = simulate(g, m)
        tree = simulate(g, m, broadcast="tree")
        assert tree.makespan < direct.makespan

    def test_tree_with_posv_and_initial_transfers(self):
        """Graphs with misplaced initial data (RHS tiles) also work."""
        g = build_posv_graph(8, 32, SymmetricBlockCyclic(4), RowCyclic1D(6))
        m = laptop(nodes=6, cores=2)
        rep = simulate(g, m, broadcast="tree")
        assert rep.comm_bytes == count_communications(g).total_bytes

    def test_rejects_unknown_mode(self):
        g = build_cholesky_graph(4, 32, BlockCyclic2D(2, 2))
        with pytest.raises(ValueError):
            simulate(g, laptop(nodes=4, cores=2), broadcast="gossip")

    def test_tracing_in_tree_mode(self):
        # Fan-outs must exceed 2 for the binomial tree to actually relay
        # (with k <= 2 every destination is a direct child of the root).
        g = build_cholesky_graph(12, 32, BlockCyclic2D(4, 4))
        rep = simulate(g, laptop(nodes=16, cores=2), broadcast="tree", trace=True)
        assert len(rep.transfers) == rep.comm_messages
        # Forwarded messages originate at nodes other than the producer:
        # at least one transfer's source differs from the version's home.
        g_sources = {t.write: t.node for t in g.tasks if t.write is not None}
        forwarded = [
            tr for tr in rep.transfers
            if tr.key in g_sources and tr.src != g_sources[tr.key]
        ]
        assert forwarded, "tree mode should relay through intermediate nodes"


class TestTreeWithAggregation:
    """aggregate=True + broadcast="tree": delivered transfers may carry
    several piggy-backed keys, and each of those keys can trigger its own
    ``tree_children`` forwarding — the interaction is easy to get subtly
    wrong (double forwards, lost keys), so pin it down."""

    def _recording_netsim(self):
        """A NetworkSim subclass that logs every submitted (key, src, dst)."""
        from repro.runtime.simulator.network import NetworkSim

        log = []

        class RecordingNet(NetworkSim):
            def submit(self, transfer, now):
                log.append((transfer.key, transfer.src, transfer.dst))
                return super().submit(transfer, now)

        return RecordingNet, log

    @pytest.mark.parametrize("dist", [BlockCyclic2D(4, 4),
                                      SymmetricBlockCyclic(5)],
                             ids=lambda d: d.name)
    def test_bytes_match_counter_and_no_duplicate_sends(self, dist,
                                                        monkeypatch):
        from repro.runtime.simulator import engine as engine_mod

        RecordingNet, log = self._recording_netsim()
        monkeypatch.setattr(engine_mod, "NetworkSim", RecordingNet)

        g = build_cholesky_graph(14, 32, dist)
        m = laptop(nodes=dist.num_nodes, cores=2)
        rep = simulate(g, m, broadcast="tree", aggregate=True)
        stats = count_communications(g)

        # Aggregation never changes the bytes moved, only the number of
        # wire messages (piggy-backed keys share one message + latency).
        assert rep.comm_bytes == stats.total_bytes
        assert rep.comm_messages <= stats.num_messages

        # Every (key, destination) pair is submitted exactly once: a key
        # delivered inside a multi-key aggregate must not be forwarded to
        # the same child again by a later delivery.
        pairs = [(key, dst) for key, _src, dst in log]
        assert len(pairs) == len(set(pairs)), "a key was sent twice"

        # ...and the submissions cover exactly the counter's messages.
        assert len(pairs) == stats.num_messages

    def test_aggregation_actually_coalesces_in_tree_mode(self, monkeypatch):
        """The guard above is only meaningful if multi-key transfers do
        occur: check aggregation fires under tree broadcast."""
        from repro.runtime.simulator import engine as engine_mod

        RecordingNet, log = self._recording_netsim()
        monkeypatch.setattr(engine_mod, "NetworkSim", RecordingNet)

        g = build_cholesky_graph(14, 32, BlockCyclic2D(4, 4))
        m = laptop(nodes=16, cores=2)
        rep = simulate(g, m, broadcast="tree", aggregate=True)
        # More submissions than wire messages == some were piggy-backed.
        assert len(log) > rep.comm_messages

    def test_compiled_engine_agrees_under_aggregation_and_tree(self):
        from repro.graph import compile_graph
        from repro.runtime.simulator import simulate_compiled

        g = build_cholesky_graph(14, 32, SymmetricBlockCyclic(5))
        cg = compile_graph(g)
        m = laptop(nodes=15, cores=2)
        ref = simulate(g, m, broadcast="tree", aggregate=True)
        fast = simulate_compiled(cg, m, broadcast="tree", aggregate=True)
        assert fast.makespan == ref.makespan
        assert fast.comm_bytes == ref.comm_bytes
        assert fast.comm_messages == ref.comm_messages


class TestAggregationIndex:
    """The piggy-back lookup in ``NetworkSim.submit`` is an O(1) per-
    (src, dst) index of queued-unstarted transfers.  It must behave
    exactly like the legacy full-heap scan it replaced — under
    aggregation at most one unstarted transfer per (src, dst) ever
    exists, so "first match in heap order" and "the indexed transfer"
    are the same message.  Pin the equivalence bit-for-bit."""

    def _legacy_scan_netsim(self):
        from repro.runtime.simulator.network import NetworkSim

        class LegacyScanNet(NetworkSim):
            """The pre-index submit: walk the whole per-source heap."""

            def submit(self, transfer, now):
                if not 0 <= transfer.src < self.num_nodes:
                    raise ValueError(f"bad source node {transfer.src}")
                if not 0 <= transfer.dst < self.num_nodes:
                    raise ValueError(f"bad destination node {transfer.dst}")
                if transfer.src == transfer.dst:
                    raise ValueError("local data needs no transfer")
                self.total_bytes += transfer.nbytes
                transfer.submitted = now
                if self.aggregate and self._egress_busy[transfer.src]:
                    for _nprio, _seq, queued in self._queues[transfer.src]:
                        if queued.dst == transfer.dst and queued.started < 0:
                            queued.keys.append(transfer.key)
                            queued.nbytes += transfer.nbytes
                            queued.remaining += transfer.nbytes
                            if transfer.priority > queued.priority:
                                queued.priority = transfer.priority
                                self._push(queued)
                            return None
                self.total_messages += 1
                self._push(transfer)
                if self._egress_busy[transfer.src]:
                    return None
                return self.egress_freed(transfer.src, now)

        return LegacyScanNet

    @pytest.mark.parametrize("broadcast", ["direct", "tree"])
    @pytest.mark.parametrize("dist", [BlockCyclic2D(4, 4),
                                      SymmetricBlockCyclic(5)],
                             ids=lambda d: d.name)
    def test_bit_equal_with_legacy_scan(self, dist, broadcast, monkeypatch):
        from repro.runtime.simulator import engine as engine_mod

        g = build_cholesky_graph(14, 32, dist)
        m = laptop(nodes=dist.num_nodes, cores=2)
        new = simulate(g, m, broadcast=broadcast, aggregate=True)

        LegacyScanNet = self._legacy_scan_netsim()
        monkeypatch.setattr(engine_mod, "NetworkSim", LegacyScanNet)
        old = simulate(g, m, broadcast=broadcast, aggregate=True)

        assert new.makespan == old.makespan
        assert new.comm_bytes == old.comm_bytes
        assert new.comm_messages == old.comm_messages

    def test_index_entries_invalidate_lazily(self):
        """A started transfer's stale index entry must not absorb keys."""
        from repro.config import NetworkSpec
        from repro.runtime.simulator.network import NetworkSim, Transfer

        net = NetworkSim(NetworkSpec(bandwidth=1e9, latency=1e-6),
                         num_nodes=3, aggregate=True, quantum=1 << 30)
        # First transfer starts immediately (port idle) — not indexed.
        quantum = net.submit(Transfer("a", 0, 1, 100, 1.0), 0.0)
        assert quantum is not None
        first, _egress_done, _delivery, _final = quantum
        assert first.started >= 0  # its first quantum has left
        # Queued behind it: indexed as the unstarted (0, 1) transfer.
        assert net.submit(Transfer("b", 0, 1, 100, 1.0), 0.0) is None
        # Same destination again: must piggy-back onto "b", not "a".
        assert net.submit(Transfer("c", 0, 1, 100, 2.0), 0.0) is None
        pending = net._unstarted[0][1]
        assert pending.keys == ["b", "c"]
        assert pending.nbytes == 200
        assert net.total_messages == 2
