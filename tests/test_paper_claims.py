"""Tests of the paper's quantitative claims (Theorem 1, §III-D/E, §IV).

These are the reproduction's core assertions: the counted communication
volumes of actual task graphs must obey — and asymptotically reach — the
closed forms proven in the paper.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import (
    asymptotic_ratio_25d,
    asymptotic_ratio_2d,
    bc2d_cholesky_volume,
    beaumont_lower_bound,
    bereux_volume,
    cholesky_message_count,
    confchox_volume,
    count_communications,
    measured_cholesky_intensity,
    memory_per_node_2d,
    olivry_lower_bound,
    optimal_bc25d_parameters,
    optimal_sbc25d_parameters,
    sbc25d_cholesky_volume,
    sbc_cholesky_volume,
    storage_tiles,
)
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import compile_cholesky
from repro.kernels.flops import cholesky_flops


class TestTheorem1:
    """D = S*(r-1) (basic) and S*(r-2) (extended), as upper bound and limit."""

    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_basic_upper_bound(self, r):
        d = SymmetricBlockCyclic(r, variant="basic")
        for N in (8, 16, 32):
            assert cholesky_message_count(d, N) <= storage_tiles(N) * (r - 1)

    @pytest.mark.parametrize("r", [4, 5, 6, 7, 8])
    def test_extended_upper_bound(self, r):
        d = SymmetricBlockCyclic(r)
        for N in (8, 16, 32, 48):
            assert cholesky_message_count(d, N) <= storage_tiles(N) * (r - 2)

    @pytest.mark.parametrize("r,variant", [(6, "basic"), (6, "extended"), (7, "extended")])
    def test_volume_converges_to_theorem_value(self, r, variant):
        d = SymmetricBlockCyclic(r, variant=variant)
        N = 240
        counted = cholesky_message_count(d, N)
        predicted = sbc_cholesky_volume(N, r, variant=variant)
        assert counted == pytest.approx(predicted, rel=0.08)

    def test_every_full_row_tile_broadcast_fanout(self):
        """Interior TRSM results reach exactly r-2 nodes (extended SBC)."""
        r = 5
        d = SymmetricBlockCyclic(r)
        cg = compile_cholesky(40, 8, d)
        c = count_communications(cg)
        # The overall message count per produced tile approaches r-2.
        produced = int((cg.kind_codes == cg.kind_names.index("TRSM")).sum())
        assert c.num_messages / produced <= r - 1

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["basic", "extended"]), data=st.data(),
           c=st.integers(1, 4), N=st.integers(1, 24))
    def test_production_count_within_the_volume_laws(self, variant, data, c, N):
        """The count of the plan the simulator core sends never exceeds
        ``S(r-1)`` / ``S(r-2)`` (Theorem 1) nor, over ``c`` slices,
        ``S(r+c-2)`` / ``S(r+c-3)`` (§IV-A), and equals the closed form in
        2D."""
        r = data.draw(st.sampled_from([2, 4, 6, 8]) if variant == "basic"
                      else st.integers(2, 7))
        base = SymmetricBlockCyclic(r, variant)
        counted = count_communications(
            compile_cholesky(N, 8, TwoDotFiveD(base, c))).num_messages
        assert counted <= sbc25d_cholesky_volume(N, r, c, variant)
        if c == 1:
            assert counted == cholesky_message_count(base, N)


class Test2DBCVolume:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (3, 3), (5, 4), (7, 3)])
    def test_upper_bound(self, p, q):
        d = BlockCyclic2D(p, q)
        for N in (12, 24, 48):
            assert cholesky_message_count(d, N) <= storage_tiles(N) * (p + q - 2)

    def test_volume_converges(self):
        p, q = 5, 4
        d = BlockCyclic2D(p, q)
        N = 240
        assert cholesky_message_count(d, N) == pytest.approx(
            bc2d_cholesky_volume(N, p, q), rel=0.08
        )


class TestSqrt2Improvement:
    """§III-D: SBC's volume is ~sqrt(2) below square 2DBC's at equal P."""

    @pytest.mark.parametrize("r,p", [(8, 5), (9, 6)])
    def test_measured_ratio_near_sqrt2(self, r, p):
        # SBC with P = r(r-1)/2 vs the square-ish 2DBC with p^2 ~ P nodes.
        sbc = SymmetricBlockCyclic(r)
        P = sbc.num_nodes  # 28 or 36
        bc = BlockCyclic2D(p, P // p) if p * (P // p) == P else BlockCyclic2D(p, p)
        N = 180
        ratio = (
            cholesky_message_count(bc, N)
            * bc.num_nodes ** -0.5
            / (cholesky_message_count(sbc, N) * sbc.num_nodes ** -0.5)
        )
        # Normalized per sqrt(P); finite-P keeps us a bit away from sqrt(2).
        assert 1.15 < ratio < 1.65

    def test_formula_ratio_is_sqrt2(self):
        """(2p-2)/(r-2) -> sqrt(2) with p = sqrt(P), r = sqrt(2P)."""
        P = 10_000_000
        p = math.sqrt(P)
        r = math.sqrt(2 * P)
        assert (2 * p - 2) / (r - 2) == pytest.approx(math.sqrt(2), rel=1e-3)
        assert asymptotic_ratio_2d() == pytest.approx(math.sqrt(2))


class Test25DVolume:
    def test_counted_volume_close_to_formula(self):
        r, c = 4, 2
        d = TwoDotFiveD(SymmetricBlockCyclic(r, variant="basic"), c)
        N = 48
        counted = count_communications(compile_cholesky(N, 8, d)).num_messages
        predicted = sbc25d_cholesky_volume(N, r, c, variant="basic")
        assert counted <= predicted
        assert counted == pytest.approx(predicted, rel=0.15)

    def test_optimal_parameters_relation(self):
        """§IV-B: the KKT optimum satisfies r = 2c and r^2 c = 2P."""
        for P in (100, 1000, 10000):
            r, c = optimal_sbc25d_parameters(P)
            assert r == pytest.approx(2 * c)
            assert r * r * c == pytest.approx(2 * P, rel=1e-9)

    def test_cbrt2_improvement(self):
        """Optimal 2.5D SBC beats optimal 2.5D BC by cbrt(2) in volume."""
        P = 1_000_000
        r, c = optimal_sbc25d_parameters(P)
        p, q, cb = optimal_bc25d_parameters(P)
        sbc_cost = r + c - 2
        bc_cost = p + q + cb - 3
        assert bc_cost / sbc_cost == pytest.approx(asymptotic_ratio_25d(), rel=1e-2)

    def test_memory_advantage(self):
        """SBC's optimum uses a factor cbrt(2) fewer slices (less memory)."""
        P = 1_000_000
        _, c_sbc = optimal_sbc25d_parameters(P)
        _, _, c_bc = optimal_bc25d_parameters(P)
        assert c_bc / c_sbc == pytest.approx(2 ** (1 / 3), rel=1e-2)


class TestLowerBoundsOrdering:
    def test_bound_hierarchy(self):
        """olivry < beaumont <= (paper 2.5D) < bereux ... < confchox."""
        n, M = 1e5, 1e7
        assert olivry_lower_bound(n, M) < beaumont_lower_bound(n, M)
        assert beaumont_lower_bound(n, M) < bereux_volume(n, M)
        assert bereux_volume(n, M) < confchox_volume(n, M)

    def test_sbc25d_beats_confchox_by_2(self):
        from repro.comm import sbc25d_volume_elements

        n, M = 2e5, 1e8
        assert confchox_volume(n, M) / sbc25d_volume_elements(n, M) == pytest.approx(2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            olivry_lower_bound(-1, 10)
        with pytest.raises(ValueError):
            beaumont_lower_bound(10, 0)


class TestArithmeticIntensity:
    """§III-E: whole-run intensities measured from counted volumes."""

    def test_sbc_approaches_two_thirds_sqrt_m(self):
        r = 8
        d = SymmetricBlockCyclic(r, variant="basic")
        P = d.num_nodes
        b = 8
        N = 192
        M = memory_per_node_2d(N * b, P)
        rho = measured_cholesky_intensity(d, N, b)
        target = (2.0 / 3.0) * math.sqrt(M)
        assert rho == pytest.approx(target, rel=0.15)

    def test_2dbc_is_sqrt2_worse(self):
        """Square 2DBC's Cholesky intensity sits ~sqrt(2) below SBC's
        (normalizing per node count)."""
        b, N = 8, 192
        sbc = SymmetricBlockCyclic(8, variant="basic")  # P = 32
        # A square-ish 2DBC platform of comparable size: 6x5 = 30 nodes.
        bc = BlockCyclic2D(6, 5)
        rho_sbc = measured_cholesky_intensity(sbc, N, b) * math.sqrt(sbc.num_nodes)
        rho_bc = measured_cholesky_intensity(bc, N, b) * math.sqrt(bc.num_nodes)
        assert rho_sbc / rho_bc == pytest.approx(math.sqrt(2), rel=0.12)
