"""Tests for scheduling priorities and graph property helpers."""

import pytest

from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.graph import (
    KIND_RANK,
    build_cholesky_graph,
    graph_stats,
    node_task_counts,
    set_critical_path_priorities,
    set_iteration_priorities,
    validate_graph,
)
from repro.graph.task import DataKey, GraphBuilder, TaskGraph


class TestIterationPriorities:
    def test_earlier_iterations_first(self):
        g = build_cholesky_graph(6, 8, BlockCyclic2D(2, 2))
        set_iteration_priorities(g)
        by_iter = {}
        for t in g.tasks:
            by_iter.setdefault(t.iteration, []).append(t.priority)
        assert min(by_iter[0]) > max(by_iter[1])

    def test_panel_beats_update_within_iteration(self):
        g = build_cholesky_graph(6, 8, BlockCyclic2D(2, 2))
        set_iteration_priorities(g)
        per_kind = {}
        for t in g.tasks:
            if t.iteration == 1:
                per_kind.setdefault(t.kind, t.priority)
        assert per_kind["POTRF"] > per_kind["TRSM"] > per_kind["GEMM"]

    def test_rank_table_sanity(self):
        assert KIND_RANK["POTRF"] > KIND_RANK["TRSM"] > KIND_RANK["SYRK"] > KIND_RANK["GEMM"]


class TestCriticalPathPriorities:
    def test_decreases_along_chain(self):
        """The POTRF of iteration i dominates everything after it, so its
        bottom level strictly exceeds that of iteration i+1's POTRF."""
        g = build_cholesky_graph(6, 8, BlockCyclic2D(2, 2))
        set_critical_path_priorities(g, lambda t: t.flops)
        potrfs = [t for t in g.tasks if t.kind == "POTRF"]
        for a, b in zip(potrfs, potrfs[1:]):
            assert a.priority > b.priority

    def test_sink_priority_is_own_duration(self):
        g = build_cholesky_graph(4, 8, BlockCyclic2D(2, 2))
        set_critical_path_priorities(g, lambda t: 1.0)
        last = g.tasks[-1]
        assert last.kind == "POTRF"
        assert last.priority == 1.0

    def test_priority_at_least_duration_plus_successor(self):
        g = build_cholesky_graph(5, 8, SymmetricBlockCyclic(3))
        set_critical_path_priorities(g, lambda t: 2.0)
        consumers = g.consumers()
        for t in g.tasks:
            if t.write in consumers:
                best = max(g.tasks[c].priority for c in consumers[t.write])
                assert t.priority == pytest.approx(2.0 + best)


class TestProperties:
    def test_node_task_counts_total(self):
        d = SymmetricBlockCyclic(4)
        g = build_cholesky_graph(8, 8, d)
        counts = node_task_counts(g, d.num_nodes)
        assert sum(counts.values()) == len(g.tasks)
        assert set(counts) == set(range(d.num_nodes))

    def test_validate_detects_broken_order(self):
        g = TaskGraph(b=8)
        bld = GraphBuilder(g)
        k0 = bld.declare("A", 0, 0, 0, "spd")
        k1 = DataKey("A", 0, 0, 1)
        g.add_task("POTRF", 0, (0,), (k0,), k1, 1.0, 0)
        # Forge an out-of-order read by mutating the task list.
        g.tasks[0], fake = g.tasks[0], None
        g.tasks.insert(0, g.tasks[0])
        g.tasks[0] = type(g.tasks[1])(
            0, "TRSM", 0, (1, 0), (k1,), DataKey("A", 1, 0, 1), 1.0, 0
        )
        with pytest.raises(AssertionError):
            validate_graph(g)

    def test_stats_str_smoke(self):
        g = build_cholesky_graph(4, 8, BlockCyclic2D(2, 2))
        assert "tasks" in str(graph_stats(g))
