"""Tests for 2.5D LU, per-iteration comm profiles, utilization timeline."""

import numpy as np
import pytest

from repro.comm import (
    communication_profile,
    count_communications,
    lu_message_count,
)
from repro.config import laptop
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import (
    build_cholesky_graph,
    build_lu_graph,
    build_lu_graph_25d,
    validate_graph,
)
from repro.obs.timeline import utilization_timeline
from repro.runtime import InitialDataSpec, execute_graph, simulate
from repro.runtime.local import final_versions
from repro.tiles import TileGrid


def assemble_lu(graph, store, grid):
    out = np.zeros((grid.n, grid.n))
    for (_name, i, j), key in final_versions(graph).items():
        out[grid.row_span(i), grid.row_span(j)] = store[key]
    return out


def lu_input(graph, spec, grid):
    a = np.zeros((grid.n, grid.n))
    for key, (_h, d) in graph.initial.items():
        if d == "lu":
            a[grid.row_span(key.i), grid.row_span(key.j)] = spec.materialize(key, d)
    return a


class TestLU25D:
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_validates(self, c):
        validate_graph(build_lu_graph_25d(6, 8, TwoDotFiveD(BlockCyclic2D(2, 2), c)))

    @pytest.mark.parametrize("c", [2, 3])
    def test_numerics(self, c):
        d25 = TwoDotFiveD(BlockCyclic2D(2, 2), c)
        N, b = 8, 8
        g = build_lu_graph_25d(N, b, d25)
        grid = TileGrid(n=N * b, b=b)
        spec = InitialDataSpec(grid, seed=9)
        out = assemble_lu(g, execute_graph(g, spec), grid)
        a = lu_input(g, spec, grid)
        L = np.tril(out, -1) + np.eye(grid.n)
        U = np.triu(out)
        np.testing.assert_allclose(L @ U, a, atol=1e-9)

    def test_c1_volume_matches_2d(self):
        base = BlockCyclic2D(2, 3)
        g1 = build_lu_graph_25d(8, 8, TwoDotFiveD(base, 1))
        assert count_communications(g1).num_messages == lu_message_count(base, 8)

    def test_tasks_on_iteration_slice(self):
        d25 = TwoDotFiveD(BlockCyclic2D(2, 2), 3)
        g = build_lu_graph_25d(9, 8, d25)
        for t in g.tasks:
            if t.kind in ("GETRF", "TRSM_L", "TRSM_U", "GEMM_LU"):
                assert d25.node_slice(t.node) == d25.slice_of_iteration(t.iteration)

    def test_replication_reduces_panel_broadcasts(self):
        """At equal *slice* distribution, the per-slice broadcasts stay the
        same but updates split across slices; total volume adds the
        reductions — mirroring D = D1 + D2 of §IV."""
        base = BlockCyclic2D(2, 2)
        v1 = count_communications(build_lu_graph_25d(8, 8, TwoDotFiveD(base, 1)))
        v2 = count_communications(build_lu_graph_25d(8, 8, TwoDotFiveD(base, 2)))
        assert v2.messages_by_kind.get("REDUCE", 0) > 0
        assert v1.messages_by_kind.get("REDUCE", 0) == 0

    def test_simulates(self):
        d25 = TwoDotFiveD(BlockCyclic2D(2, 2), 2)
        g = build_lu_graph_25d(8, 32, d25)
        rep = simulate(g, laptop(nodes=8, cores=2))
        assert rep.comm_bytes == count_communications(g).total_bytes


class TestCommunicationProfile:
    def test_totals_match_counter(self, any_dist):
        g = build_cholesky_graph(12, 16, any_dist)
        prof = communication_profile(g)
        cc = count_communications(g)
        assert sum(p.bytes for p in prof) == cc.total_bytes
        assert sum(p.messages for p in prof) == cc.num_messages
        assert sum(p.flops for p in prof) == pytest.approx(g.total_flops())

    def test_intensity_declines_with_iterations(self):
        """§III-E's shrinking-domain effect: later iterations do fewer
        flops per transferred byte."""
        g = build_cholesky_graph(24, 8, SymmetricBlockCyclic(4))
        prof = [p for p in communication_profile(g) if p.bytes > 0]
        assert prof[0].intensity > 2 * prof[-2].intensity

    def test_lu_profile_covers_iterations(self):
        g = build_lu_graph(8, 8, BlockCyclic2D(2, 2))
        prof = communication_profile(g)
        assert [p.iteration for p in prof] == list(range(8))

    def test_zero_comm_iteration_has_infinite_intensity(self):
        g = build_cholesky_graph(4, 8, BlockCyclic2D(1, 1))
        prof = communication_profile(g)
        assert all(p.intensity == float("inf") for p in prof)


class TestUtilizationTimeline:
    def test_fractions_bounded(self):
        g = build_cholesky_graph(12, 32, SymmetricBlockCyclic(4))
        rep = simulate(g, laptop(nodes=6, cores=2), trace=True)
        tl = utilization_timeline(rep, buckets=20)
        assert len(tl) == 20
        for _t, frac in tl:
            assert 0.0 <= frac <= 1.0 + 1e-9

    def test_integral_matches_busy_time(self):
        g = build_cholesky_graph(10, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2), trace=True)
        tl = utilization_timeline(rep, buckets=40)
        width = rep.makespan / 40
        workers = 4 * 2
        integral = sum(frac for _t, frac in tl) * width * workers
        assert integral == pytest.approx(sum(rep.busy_time), rel=1e-6)

    def test_endgame_starves(self):
        """The last phase of the factorization cannot fill the machine."""
        g = build_cholesky_graph(16, 32, SymmetricBlockCyclic(4))
        rep = simulate(g, laptop(nodes=6, cores=4), trace=True)
        tl = utilization_timeline(rep, buckets=10)
        assert tl[-1][1] < max(frac for _t, frac in tl)

    def test_requires_trace(self):
        g = build_cholesky_graph(5, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2))
        with pytest.raises(ValueError):
            utilization_timeline(rep)

    def test_rejects_bad_buckets(self):
        g = build_cholesky_graph(5, 32, BlockCyclic2D(2, 2))
        rep = simulate(g, laptop(nodes=4, cores=2), trace=True)
        with pytest.raises(ValueError):
            utilization_timeline(rep, buckets=0)
