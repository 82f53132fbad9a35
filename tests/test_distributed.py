"""Tests for the multiprocessing distributed executor."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from repro.comm import cholesky_message_count, cholesky_node_traffic, count_communications
from repro.distributions import BlockCyclic2D, RowCyclic1D, SymmetricBlockCyclic
from repro.graph import build_cholesky_graph, build_posv_graph, build_potri_graph
from repro.kernels.reference import posv_reference, potri_reference
from repro.runtime import (
    InitialDataSpec,
    assemble_lower,
    assemble_rhs,
    assemble_symmetric,
    execute_distributed,
)
from repro.tiles import TileGrid, random_rhs_dense, random_spd_dense

from .strategies import owner_tables


class TestDistributedCholesky:
    @pytest.mark.parametrize("dist", [SymmetricBlockCyclic(3), BlockCyclic2D(2, 2)],
                             ids=["sbc", "bc"])
    def test_numerics(self, dist):
        N, b = 6, 16
        grid = TileGrid(n=N * b, b=b)
        g = build_cholesky_graph(N, b, dist)
        rep = execute_distributed(g, InitialDataSpec(grid, seed=7), timeout=120)
        L = assemble_lower(g, rep.store, grid)
        ref = scipy.linalg.cholesky(random_spd_dense(N * b, seed=7, b=b), lower=True)
        np.testing.assert_allclose(L, ref, atol=1e-9)

    @settings(max_examples=6, deadline=None)
    @given(case=st.integers(1, 5).flatmap(
        lambda N: st.tuples(st.just(N), owner_tables(N))))
    @example(case=(8, SymmetricBlockCyclic(4)))
    @example(case=(3, BlockCyclic2D(2, 40)))  # 80 nodes, the tiles use 7
    def test_measured_traffic_equals_prediction(self, case):
        """Real IPC bytes, the count of the plan the simulator core sends and
        the closed-form counter agree, in total and per node, on generated
        owner tables — the Figure 8 'measured volume' cross-check.  The
        executor starts one process per node, so it runs the P <= 9 tables
        only; the wide ones (P > 256) check the closed form alone."""
        N, dist = case
        b, P = 16, dist.num_nodes
        g = build_cholesky_graph(N, b, dist)
        c = count_communications(g)
        tile = b * b * 8
        sent, recv = cholesky_node_traffic(dist, N)
        assert cholesky_message_count(dist, N) == c.num_messages
        assert len(sent) == len(recv) == P
        assert (sent * tile).tolist() == [c.sent_bytes.get(n, 0) for n in range(P)]
        assert (recv * tile).tolist() == [c.recv_bytes.get(n, 0) for n in range(P)]
        if P > 9:
            return
        grid = TileGrid(n=N * b, b=b)
        rep = execute_distributed(g, InitialDataSpec(grid, seed=N), timeout=120)
        assert rep.total_bytes == c.total_bytes
        assert rep.total_messages == c.num_messages
        assert [rep.sent_bytes.get(n, 0) for n in range(P)] == \
            [c.sent_bytes.get(n, 0) for n in range(P)]

    def test_per_node_sent_bytes_match(self):
        dist = BlockCyclic2D(2, 3)
        g = build_cholesky_graph(7, 16, dist)
        grid = TileGrid(n=112, b=16)
        rep = execute_distributed(g, InitialDataSpec(grid, seed=2), timeout=120)
        c = count_communications(g)
        for node in range(dist.num_nodes):
            assert rep.sent_bytes.get(node, 0) == c.sent_bytes.get(node, 0)


class TestDistributedOtherOps:
    def test_posv(self):
        N, b, width = 5, 16, 8
        grid = TileGrid(n=N * b, b=b)
        g = build_posv_graph(N, b, SymmetricBlockCyclic(3), RowCyclic1D(3), width=width)
        rep = execute_distributed(
            g, InitialDataSpec(grid, seed=3, width=width), timeout=120
        )
        x = assemble_rhs(g, rep.store, grid, width)
        a = random_spd_dense(N * b, seed=3, b=b)
        rhs = random_rhs_dense(N * b, width, seed=3, b=b)
        np.testing.assert_allclose(x, posv_reference(a, rhs), atol=1e-9)

    def test_potri_with_remap(self):
        N, b = 5, 16
        grid = TileGrid(n=N * b, b=b)
        g = build_potri_graph(N, b, SymmetricBlockCyclic(3),
                              trtri_dist=BlockCyclic2D(3, 1))
        rep = execute_distributed(g, InitialDataSpec(grid, seed=4), timeout=120)
        inv = assemble_symmetric(g, rep.store, grid)
        np.testing.assert_allclose(
            inv, potri_reference(random_spd_dense(N * b, seed=4, b=b)), atol=1e-8
        )
