"""Tests for 2DBC, row-cyclic, 2.5D wrapper, and balance analysis."""

import numpy as np
import pytest

from repro.distributions import (
    BlockCyclic2D,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
    balance_report,
    best_rectangle,
    load_imbalance,
    lower_tile_counts,
    trailing_imbalance_profile,
)


class TestBlockCyclic2D:
    def test_owner_formula(self):
        d = BlockCyclic2D(2, 3)
        assert d.owner(0, 0) == 0
        assert d.owner(0, 1) == 1
        assert d.owner(1, 0) == 3
        assert d.owner(2, 3) == 0  # wraps around

    def test_figure1_pattern(self):
        """Figure 1: a 2x3 pattern repeats over the matrix."""
        d = BlockCyclic2D(2, 3)
        m = d.owner_map(12)
        np.testing.assert_array_equal(m[:2, :3], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(m[:2, :3], m[2:4, 3:6])

    def test_owner_map_matches_owner(self):
        d = BlockCyclic2D(3, 4)
        m = d.owner_map(17)
        for i in range(17):
            for j in range(17):
                assert m[i, j] == d.owner(i, j)

    def test_broadcast_fanout(self):
        assert BlockCyclic2D(5, 4).broadcast_fanout() == 7

    def test_not_symmetric_in_general(self):
        d = BlockCyclic2D(2, 3)
        assert d.owner(0, 1) != d.owner(1, 0)

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (-1, 2)])
    def test_invalid(self, p, q):
        with pytest.raises(ValueError):
            BlockCyclic2D(p, q)

    @pytest.mark.parametrize("P,expected", [(16, (4, 4)), (20, (5, 4)), (21, (7, 3)),
                                            (28, (7, 4)), (30, (6, 5)), (35, (7, 5)),
                                            (36, (6, 6)), (13, (13, 1))])
    def test_best_rectangle_matches_table1(self, P, expected):
        d = best_rectangle(P)
        assert (d.p, d.q) == expected
        assert d.num_nodes == P


class TestRowCyclic:
    def test_owner_ignores_column(self):
        d = RowCyclic1D(4)
        assert d.owner(5, 0) == d.owner(5, 3) == 1

    def test_owner_map(self):
        d = RowCyclic1D(3)
        m = d.owner_map(7)
        np.testing.assert_array_equal(m[:, 0], [0, 1, 2, 0, 1, 2, 0])
        assert (m == m[:, :1]).all()

    def test_invalid(self):
        with pytest.raises(ValueError):
            RowCyclic1D(0)


class TestTwoDotFiveD:
    def test_node_count(self):
        d = TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), c=3)
        assert d.num_nodes == 24
        assert d.slice_size == 8

    def test_slice_round_robin(self):
        d = TwoDotFiveD(BlockCyclic2D(2, 2), c=3)
        assert [d.slice_of_iteration(i) for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_owner_offsets_by_slice(self):
        base = BlockCyclic2D(2, 2)
        d = TwoDotFiveD(base, c=2)
        assert d.owner(0, 1, 1) == base.owner(1, 1)
        assert d.owner(1, 1, 1) == 4 + base.owner(1, 1)

    def test_vectorised_geometry_is_the_scalar_one(self):
        """What the graph phases gather from: ``owner_map`` and array
        ``slice_of_iteration`` against the scalar methods."""
        d = TwoDotFiveD(SymmetricBlockCyclic(3), c=3)
        m = d.owner_map(5)
        assert m.shape == (3, 5, 5)
        for s in range(3):
            for i in range(5):
                for j in range(5):
                    assert m[s, i, j] == d.owner(s, i, j)
        its = np.arange(7)
        assert d.slice_of_iteration(its).tolist() == [
            d.slice_of_iteration(i) for i in range(7)]
        with pytest.raises(IndexError):
            d.slice_of_iteration(its - 1)

    def test_plain_distribution_is_one_slice(self):
        base = BlockCyclic2D(2, 3)
        one = TwoDotFiveD.of(base)
        assert (one.base, one.c, one.num_nodes) == (base, 1, 6)
        d = TwoDotFiveD(base, c=2)
        assert TwoDotFiveD.of(d) is d

    def test_node_slice_inverse(self):
        d = TwoDotFiveD(BlockCyclic2D(2, 3), c=4)
        for node in range(d.num_nodes):
            s = d.node_slice(node)
            assert s * 6 <= node < (s + 1) * 6

    def test_invalid_slice_queries(self):
        d = TwoDotFiveD(BlockCyclic2D(2, 2), c=2)
        with pytest.raises(IndexError):
            d.owner(2, 0, 0)
        with pytest.raises(IndexError):
            d.node_slice(99)
        with pytest.raises(ValueError):
            TwoDotFiveD(BlockCyclic2D(2, 2), c=0)


class TestBalanceAnalysis:
    def test_counts_sum_to_lower_triangle(self, any_dist):
        N = 24
        counts = lower_tile_counts(any_dist, N)
        assert counts.sum() == N * (N + 1) // 2

    def test_2dbc_balanced_on_multiples(self):
        d = BlockCyclic2D(4, 4)
        assert load_imbalance(d, 32) < 1.1

    def test_trailing_profile_stays_bounded(self):
        """Block-cyclic stays balanced as the trailing matrix shrinks —
        the property motivating cyclic distributions (§I)."""
        d = SymmetricBlockCyclic(4)
        profile = trailing_imbalance_profile(d, 36)
        # Ignore the last few iterations where fewer tiles than nodes remain.
        assert (profile[:24] < 2.0).all()

    def test_balance_report_fields(self):
        rep = balance_report(SymmetricBlockCyclic(5), 40)
        assert rep.num_nodes == 10
        assert rep.min_tiles <= rep.mean_tiles <= rep.max_tiles
        assert rep.imbalance >= 1.0
