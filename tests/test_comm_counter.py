"""Tests for the generic and vectorized communication counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import (
    cholesky_message_count,
    cholesky_node_traffic,
    cholesky_volume_exact,
    count_communications,
)
from repro.distributions import BlockCyclic2D, RowCyclic1D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph, build_posv_graph


class TestGenericCounter:
    def test_single_node_means_zero_traffic(self):
        g = build_cholesky_graph(8, 16, BlockCyclic2D(1, 1))
        c = count_communications(g)
        assert c.total_bytes == 0
        assert c.num_messages == 0

    def test_bytes_are_message_multiples(self, any_dist):
        b = 16
        g = build_cholesky_graph(10, b, any_dist)
        c = count_communications(g)
        assert c.total_bytes == c.num_messages * b * b * 8

    def test_sent_equals_received(self, any_dist):
        g = build_cholesky_graph(10, 16, any_dist)
        c = count_communications(g)
        assert sum(c.sent_bytes.values()) == sum(c.recv_bytes.values()) == c.total_bytes

    def test_version_cached_per_destination(self):
        """Several consumers of one version on one node = one message.

        With 2DBC(2,1) every tile of an even row is on node 0; a TRSM result
        of row 5 feeds many GEMMs on node 0 but is sent only once.
        """
        d = BlockCyclic2D(2, 1)
        g = build_cholesky_graph(8, 16, d)
        c = count_communications(g)
        # Only two nodes: each produced tile crosses at most once.
        produced = sum(1 for t in g.tasks if t.kind in ("POTRF", "TRSM"))
        assert c.num_messages <= produced

    def test_messages_by_kind_keys(self):
        g = build_cholesky_graph(8, 16, SymmetricBlockCyclic(4))
        c = count_communications(g)
        assert set(c.messages_by_kind) <= {"POTRF", "TRSM", "SYRK", "GEMM"}

    def test_max_node_traffic(self):
        g = build_cholesky_graph(10, 16, SymmetricBlockCyclic(4))
        c = count_communications(g)
        assert 0 < c.max_node_traffic() <= c.total_bytes * 2

    def test_rhs_tiles_counted_at_rhs_size(self):
        b, width = 16, 4
        g = build_posv_graph(6, b, BlockCyclic2D(2, 2), RowCyclic1D(3), width=width)
        c = count_communications(g)
        # Volume mixes full tiles (b*b) and RHS tiles (b*width).
        assert c.total_bytes % (b * width * 8) == 0


class TestFastCounter:
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 12, 20])
    def test_matches_generic_counter(self, N, any_dist):
        g = build_cholesky_graph(N, 16, any_dist)
        assert cholesky_volume_exact(any_dist, N, 16) == count_communications(g).total_bytes

    def test_zero_for_single_node(self):
        assert cholesky_message_count(BlockCyclic2D(1, 1), 10) == 0

    @pytest.mark.parametrize("dist", [BlockCyclic2D(8, 9), BlockCyclic2D(10, 13)],
                             ids=lambda d: d.name)
    def test_more_than_64_nodes_supported(self, dist):
        """Multi-word masks: platforms past 64 nodes count exactly."""
        N = 12
        g = build_cholesky_graph(N, 16, dist)
        assert cholesky_message_count(dist, N) == count_communications(g).num_messages

    def test_node_traffic_beyond_64_nodes(self):
        dist = BlockCyclic2D(9, 8)  # P = 72 spans two mask words
        sent, recv = cholesky_node_traffic(dist, 14)
        assert sent.sum() == recv.sum() == cholesky_message_count(dist, 14)

    @pytest.mark.parametrize("dist,N", [(BlockCyclic2D(9, 8), 7),
                                        (BlockCyclic2D(2, 40), 3)],
                             ids=["9x8-N7", "2x40-N3"])
    def test_node_traffic_has_an_entry_per_node(self, dist, N):
        """P > 64, but the N x N tiles use no node past 63: ``recv`` was
        cut to the 64 nodes one mask word holds."""
        sent, recv = cholesky_node_traffic(dist, N)
        assert len(sent) == len(recv) == dist.num_nodes
        assert sent.sum() == recv.sum() == cholesky_message_count(dist, N)

    def test_element_size_scaling(self):
        d = SymmetricBlockCyclic(4)
        assert cholesky_volume_exact(d, 8, 16, element_size=4) * 2 == cholesky_volume_exact(
            d, 8, 16, element_size=8
        )


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(1, 16),
    kind=st.sampled_from(["sbc", "sbc_basic", "bc"]),
    param=st.integers(2, 5),
    q=st.integers(1, 4),
)
def test_fast_equals_generic_property(N, kind, param, q):
    """The O(N^2) bitmask counter is exactly the graph counter, always."""
    if kind == "sbc":
        dist = SymmetricBlockCyclic(max(param, 3))
    elif kind == "sbc_basic":
        dist = SymmetricBlockCyclic(2 * param, variant="basic")
    else:
        dist = BlockCyclic2D(param, q)
    g = build_cholesky_graph(N, 8, dist)
    assert cholesky_volume_exact(dist, N, 8) == count_communications(g).total_bytes
