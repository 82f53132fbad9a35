"""Tests for the high-level repro.api facade."""

import numpy as np
import pytest
import scipy.linalg

import repro
from repro.kernels.reference import posv_reference, potri_reference


class TestCholeskyApi:
    def test_returns_factor_and_info(self):
        L, info = repro.cholesky(n=64, b=16, dist=repro.SymmetricBlockCyclic(3))
        np.testing.assert_allclose(
            L, scipy.linalg.cholesky(info["a"], lower=True), atol=1e-9
        )
        assert info["num_tasks"] > 0
        assert info["comm"].total_bytes >= 0

    def test_threads_runtime(self):
        L, info = repro.cholesky(
            n=64, b=16, dist=repro.BlockCyclic2D(2, 2), runtime="threads"
        )
        np.testing.assert_allclose(
            L, scipy.linalg.cholesky(info["a"], lower=True), atol=1e-9
        )

    def test_rejects_non_dividing_tile(self):
        with pytest.raises(ValueError):
            repro.cholesky(n=65, b=16, dist=repro.BlockCyclic2D(2, 2))

    def test_rejects_unknown_runtime(self):
        with pytest.raises(ValueError):
            repro.cholesky(n=32, b=16, dist=repro.BlockCyclic2D(1, 1), runtime="mpi")


class TestSolveApi:
    def test_solution(self):
        x, info = repro.solve(n=64, b=16, dist=repro.SymmetricBlockCyclic(3), width=4)
        np.testing.assert_allclose(x, posv_reference(info["a"], info["b"]), atol=1e-9)

    def test_default_width_is_tile(self):
        x, _ = repro.solve(n=48, b=16, dist=repro.BlockCyclic2D(2, 2))
        assert x.shape == (48, 16)


class TestInverseApi:
    def test_inverse(self):
        inv, info = repro.inverse(n=64, b=16, dist=repro.SymmetricBlockCyclic(3))
        np.testing.assert_allclose(inv, potri_reference(info["a"]), atol=1e-8)

    def test_inverse_with_remap(self):
        inv, info = repro.inverse(
            n=64,
            b=16,
            dist=repro.SymmetricBlockCyclic(4),
            trtri_dist=repro.BlockCyclic2D(3, 2),
        )
        np.testing.assert_allclose(inv, potri_reference(info["a"]), atol=1e-8)


class TestAnalysisApi:
    def test_communication_volume_gb(self):
        v_sbc = repro.communication_volume(repro.SymmetricBlockCyclic(7), ntiles=60, b=500)
        v_bc = repro.communication_volume(repro.BlockCyclic2D(7, 3), ntiles=60, b=500)
        assert 0 < v_sbc < v_bc

    def test_simulate_cholesky_2d(self):
        rep = repro.simulate_cholesky(ntiles=16, b=500, dist=repro.SymmetricBlockCyclic(4))
        assert rep.makespan > 0
        assert rep.gflops_per_node > 0

    def test_simulate_cholesky_25d(self):
        d = repro.TwoDotFiveD(repro.SymmetricBlockCyclic(4, variant="basic"), 2)
        rep = repro.simulate_cholesky(ntiles=12, b=500, dist=d)
        assert rep.makespan > 0

    @pytest.mark.parametrize("layout", ["dist", "dist25"])
    @pytest.mark.parametrize("broadcast", ["direct", "tree"])
    @pytest.mark.parametrize("aggregate", [False, True])
    @pytest.mark.parametrize("synchronized", [False, True])
    def test_simulate_cholesky_runs_the_core_and_equals_the_oracle(
            self, monkeypatch, layout, broadcast, aggregate, synchronized):
        """The front door never enters the oracle, and answers what it would."""
        from repro.graph import build_cholesky_graph, build_cholesky_graph_25d
        from repro.runtime.simulator import engine

        oracle = engine.simulate
        if layout == "dist":
            d = repro.SymmetricBlockCyclic(4)
            graph = build_cholesky_graph(8, 500, d)
        else:
            d = repro.TwoDotFiveD(repro.BlockCyclic2D(2, 2), 2)
            graph = build_cholesky_graph_25d(8, 500, d)
        options = dict(broadcast=broadcast, aggregate=aggregate,
                       synchronized=synchronized, trace=True)
        want = oracle(graph, repro.bora(d.num_nodes), **options)

        def entered(*_args, **_kwargs):
            raise AssertionError("simulate_cholesky entered the oracle")

        for module in (engine, repro.runtime.simulator, repro.runtime, repro.api):
            monkeypatch.setattr(module, "simulate", entered, raising=False)
        got = repro.simulate_cholesky(8, 500, dist=d, **options)
        assert (got.makespan, got.comm_bytes, got.comm_messages) == (
            want.makespan, want.comm_bytes, want.comm_messages)
        assert got.trace == want.trace
        assert got.transfers == want.transfers

    def test_simulate_requires_exactly_one_dist(self):
        """One ``dist`` parameter takes either layout; there is no second."""
        with pytest.raises(TypeError):
            repro.simulate_cholesky(ntiles=8, b=500)
        with pytest.raises(TypeError):
            d = repro.TwoDotFiveD(repro.BlockCyclic2D(2, 2), 2)
            repro.simulate_cholesky(
                ntiles=8, b=500, dist=repro.BlockCyclic2D(2, 2), dist25=d
            )

    def test_simulate_cholesky_honours_the_element_size(self):
        """4-byte elements move half the bytes of 8-byte ones."""
        import dataclasses

        d = repro.BlockCyclic2D(2, 2)
        double = repro.bora(d.num_nodes)
        single = dataclasses.replace(double, element_size=4)
        wide, narrow = (repro.simulate_cholesky(8, 64, d, machine=m)
                        for m in (double, single))
        assert wide.comm_bytes == 1835008 == 2 * narrow.comm_bytes

    def test_version(self):
        assert repro.__version__
