"""Tests for the generic and vectorized communication counters."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import communication_volume
from repro.comm import (
    cholesky_message_count,
    cholesky_node_traffic,
    cholesky_volume_exact,
    count_communications,
    lu_message_count,
    lu_volume_exact,
)
from repro.distributions import (
    BlockCyclic2D,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from repro.graph import build_cholesky_graph, build_posv_graph, compile_cholesky, compile_lu

from .strategies import owner_tables

#: Every entry point of the fast counter, and the API call built on it.
FAST_ENTRY_POINTS = {
    "cholesky_message_count": cholesky_message_count,
    "cholesky_node_traffic": cholesky_node_traffic,
    "cholesky_volume_exact": lambda d, N: cholesky_volume_exact(d, N, 16),
    "lu_message_count": lu_message_count,
    "lu_volume_exact": lambda d, N: lu_volume_exact(d, N, 16),
    "communication_volume": lambda d, N: communication_volume(d, N, 16),
}


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

    @pytest.mark.parametrize("entry", sorted(FAST_ENTRY_POINTS))
    @pytest.mark.parametrize("dist,N", [
        (TwoDotFiveD(BlockCyclic2D(2, 2), 2), 2),     # LU said 8, the plan 5
        (TwoDotFiveD(SymmetricBlockCyclic(4), 3), 3),  # LU said 40, the plan 14
        (TwoDotFiveD(BlockCyclic2D(2, 2), 2), 9),
    ], ids=["2DBC-c2-N2", "SBC-c3-N3", "2DBC-c2-N9"])
    def test_2_5d_layout_is_refused(self, entry, dist, N):
        """A 2.5D owner map is ``(c, N, N)``, not ``N x N``: LU counted it
        silently wrong at N <= c, everything else failed inside numpy."""
        with pytest.raises(ValueError, match="count_communications"):
            FAST_ENTRY_POINTS[entry](dist, N)

    @pytest.mark.parametrize("entry", ["cholesky_message_count",
                                       "cholesky_node_traffic", "lu_message_count"])
    @pytest.mark.parametrize("dist", [SymmetricBlockCyclic(9), BlockCyclic2D(9, 8)],
                             ids=lambda d: d.name)
    def test_peak_memory_at_paper_scale(self, entry, dist):
        """At N = 600 every entry point allocates at most 8 words per tile
        per mask word (one word for SBC r = 9, two for 72 nodes), the owner
        map included."""
        N, words = 600, (dist.num_nodes - 1) // 64 + 1
        tracemalloc.start()
        try:
            FAST_ENTRY_POINTS[entry](dist, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * N * N * words * 8, f"{peak / (N * N * words * 8):.1f} words"

    def test_element_size_scaling(self):
        d = SymmetricBlockCyclic(4)
        assert cholesky_volume_exact(d, 8, 16, element_size=4) * 2 == cholesky_volume_exact(
            d, 8, 16, element_size=8
        )


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    N=st.integers(1, 40),
    kind=st.sampled_from(["sbc", "sbc_basic", "bc", "table"]),
    param=st.integers(2, 5),
    q=st.integers(1, 4),
)
def test_fast_equals_generic_property(data, N, kind, param, q):
    """The bitmask counters are exactly the plan count, always: the
    Cholesky total and per-node traffic and the LU total, also on arbitrary
    owner tables of up to 300 nodes (five mask words)."""
    if kind == "sbc":
        dist = SymmetricBlockCyclic(max(param, 3))
    elif kind == "sbc_basic":
        dist = SymmetricBlockCyclic(2 * param, variant="basic")
    elif kind == "bc":
        dist = BlockCyclic2D(param, q)
    else:
        dist = data.draw(owner_tables(N))
    b = 8
    tile = b * b * 8
    plan = count_communications(compile_cholesky(N, b, dist))
    assert cholesky_volume_exact(dist, N, b) == plan.total_bytes
    sent, recv = cholesky_node_traffic(dist, N)
    assert len(sent) == len(recv) == dist.num_nodes
    assert {n: int(v) * tile for n, v in enumerate(sent) if v} == plan.sent_bytes
    assert {n: int(v) * tile for n, v in enumerate(recv) if v} == plan.recv_bytes
    lu = count_communications(compile_lu(N, b, dist))
    assert lu_message_count(dist, N) == lu.num_messages
