"""Tests for the task/data-version core."""

import numpy as np
import pytest

import repro.graph
from repro.distributions import BlockCyclic2D, RowCyclic1D, TwoDotFiveD
from repro.graph import DataKey, GraphBuilder, TaskGraph
from repro.graph.task import Batch, Tiles


@pytest.fixture
def graph():
    return TaskGraph(b=16)


class TestTaskGraph:
    def test_initial_declaration(self, graph):
        k = graph.add_initial(DataKey("A", 0, 0, 0), home=2, descriptor="spd")
        assert graph.source_of(k) == 2
        assert graph.initial[k] == (2, "spd")

    def test_duplicate_initial_rejected(self, graph):
        k = DataKey("A", 0, 0, 0)
        graph.add_initial(k, 0, "spd")
        with pytest.raises(ValueError):
            graph.add_initial(k, 1, "spd")

    def test_task_reading_undeclared_data_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_task("POTRF", 0, (0,), (DataKey("A", 0, 0, 0),), None, 1.0, 0)

    def test_double_producer_rejected(self, graph):
        k0 = graph.add_initial(DataKey("A", 0, 0, 0), 0, "spd")
        k1 = DataKey("A", 0, 0, 1)
        graph.add_task("POTRF", 0, (0,), (k0,), k1, 1.0, 0)
        with pytest.raises(ValueError):
            graph.add_task("POTRF", 0, (0,), (k0,), k1, 1.0, 0)

    def test_source_of_produced(self, graph):
        k0 = graph.add_initial(DataKey("A", 0, 0, 0), 3, "spd")
        k1 = DataKey("A", 0, 0, 1)
        graph.add_task("POTRF", 5, (0,), (k0,), k1, 1.0, 0)
        assert graph.source_of(k1) == 5

    def test_source_of_unknown_raises(self, graph):
        with pytest.raises(KeyError):
            graph.source_of(DataKey("Z", 9, 9, 9))

    def test_dependency_edges(self, graph):
        k0 = graph.add_initial(DataKey("A", 0, 0, 0), 0, "spd")
        k1 = DataKey("A", 0, 0, 1)
        t1 = graph.add_task("POTRF", 0, (0,), (k0,), k1, 1.0, 0)
        k2 = DataKey("A", 1, 0, 1)
        graph.add_initial(DataKey("A", 1, 0, 0), 0, "spd")
        t2 = graph.add_task("TRSM", 0, (1, 0), (DataKey("A", 1, 0, 0), k1), k2, 1.0, 0)
        assert list(graph.dependency_edges()) == [(t1.id, t2.id)]

    def test_data_bytes_square_vs_rhs(self):
        g = TaskGraph(b=16, width=4)
        assert g.data_bytes(DataKey("A", 0, 0, 0)) == 16 * 16 * 8
        assert g.data_bytes(DataKey("B", 0, 0, 0)) == 16 * 4 * 8

    def test_total_flops(self, graph):
        k0 = graph.add_initial(DataKey("A", 0, 0, 0), 0, "spd")
        graph.add_task("POTRF", 0, (0,), (k0,), DataKey("A", 0, 0, 1), 10.0, 0)
        graph.add_task("FOO", 0, (0,), (), None, 5.0, 0)
        assert graph.total_flops() == 15.0


def _bump(bld, tiles, node=0):
    """One task rewriting each of ``tiles`` in place: the one-row batch
    that stands where the scalar ``bump`` / ``task`` calls used to."""
    n = max(np.size(x) for x in tiles[1:])
    bld.emit(0, Batch("POTRF", np.full(n, node), (0,), tiles, (), 1.0))
    return bld.graph.tasks[-n:]


class TestGraphBuilder:
    def test_version_bumping(self, graph):
        bld = GraphBuilder(graph)
        bld.declare("A", 0, 0, home=1, descriptor="spd")
        one = Tiles("A", np.array([0]), 0)
        assert bld.source_of(one).tolist() == [1]
        (t,) = _bump(bld, one, node=2)
        assert (t.reads, t.write) == ((DataKey("A", 0, 0, 0),), DataKey("A", 0, 0, 1))
        assert bld.source_of(one).tolist() == [2]  # the version moved with it
        assert _bump(bld, one)[0].write.ver == 2

    def test_parts_are_independent_streams(self, graph):
        bld = GraphBuilder(graph)
        bld.declare("A", 0, 0, home=0, descriptor="spd", part=0)
        bld.declare("A", 0, 0, home=1, descriptor="zero", part=1)
        _bump(bld, Tiles("A", np.array([0]), 0, part=1))
        both = _bump(bld, Tiles("A", 0, 0, part=np.array([0, 1])))
        assert [t.write for t in both] == [DataKey("A", 0, 0, 1, 0),
                                           DataKey("A", 0, 0, 2, 1)]

    def test_current_of_undeclared_raises(self, graph):
        with pytest.raises(KeyError):
            GraphBuilder(graph).source_of(Tiles("A", np.array([0]), 0))


# Every entry point that builds a graph, with the arguments after (N, b).
ENTRY_POINTS = {
    "build_cholesky_graph": (BlockCyclic2D(2, 2),),
    "build_cholesky_graph_25d": (TwoDotFiveD(BlockCyclic2D(2, 2), 2),),
    "build_lu_graph": (BlockCyclic2D(2, 2),),
    "build_lu_graph_25d": (TwoDotFiveD(BlockCyclic2D(2, 2), 2),),
    "build_posv_graph": (BlockCyclic2D(2, 2), RowCyclic1D(2)),
    "build_trtri_graph": (BlockCyclic2D(2, 2),),
    "build_lauum_graph": (BlockCyclic2D(2, 2),),
    "build_potri_graph": (BlockCyclic2D(2, 2),),
    "compile_cholesky": (BlockCyclic2D(2, 2),),
    "compile_lu": (BlockCyclic2D(2, 2),),
    "compile_posv": (BlockCyclic2D(2, 2), RowCyclic1D(2)),
    "compile_trtri": (BlockCyclic2D(2, 2),),
    "compile_lauum": (BlockCyclic2D(2, 2),),
    "compile_potri": (BlockCyclic2D(2, 2),),
}


@pytest.mark.parametrize("N, b", [(0, 8), (-1, 8), (3, 0), (3, -1)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_builder_rejects_an_empty_problem(entry, N, b):
    """Said once, in the sinks' constructors: no builder returns an empty
    graph for N < 1 or zero-byte tiles for b < 1."""
    build = getattr(repro.graph, entry)
    with pytest.raises(ValueError):
        build(N, b, *ENTRY_POINTS[entry])
    smallest = build(1, 1, *ENTRY_POINTS[entry])  # the first size accepted
    assert (smallest.n_tasks if entry.startswith("compile") else len(smallest))
