"""A graph is a DAG plus a placement: Cholesky and LU compiled once on
their tile slots (``compile_dag``) and placed on a layout (``place``)
are the graph built for that layout, column for column."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributions import TwoDotFiveD
from repro.graph import (
    build_cholesky_graph,
    build_lu_graph,
    compile_dag,
    compile_graph,
    place,
)
from repro.service.hashing import structure_hash

from .strategies import distributions

BUILDERS = {"cholesky": build_cholesky_graph, "lu": build_lu_graph}
#: what a layout places; a placed graph shares every other column
PLACED = ("node", "data_source_node", "priority")
SHARED = ("kind_codes", "flops", "iteration", "write_id", "read_ptr",
          "read_ids", "data_producer", "data_nbytes")


@settings(max_examples=60, deadline=None)
@given(algorithm=st.sampled_from(sorted(BUILDERS)), N=st.integers(1, 10),
       dist=distributions(), element_size=st.sampled_from([4, 8]))
def test_a_placed_dag_is_the_graph_built_for_its_layout(
        algorithm, N, dist, element_size):
    dag = compile_dag(algorithm, N, 32, TwoDotFiveD.of(dist).c, element_size)
    placed = place(dag, N, dist)
    built = compile_graph(BUILDERS[algorithm](N, 32, dist, element_size))
    for name in (*PLACED, *SHARED):
        a, b = getattr(placed, name), getattr(built, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert placed.kind_names == built.kind_names
    assert (placed.b, placed.width, placed.element_size, placed.n_init) == (
        built.b, built.width, built.element_size, built.n_init)
    assert structure_hash(placed) == structure_hash(built)
    assert placed.level_ranges == dag.level_ranges


@settings(max_examples=20, deadline=None)
@given(algorithm=st.sampled_from(sorted(BUILDERS)), N=st.integers(1, 10),
       dist=distributions())
def test_a_placement_shares_its_dags_adjacency_and_never_its_plan(
        algorithm, N, dist):
    dag = compile_dag(algorithm, N, 32, TwoDotFiveD.of(dist).c)
    csr = dag.consumers_csr()
    plan = dag.comm_plan()
    first, second = place(dag, N, dist), place(dag, N, dist)
    for placed in (first, second):
        assert placed.consumers_csr() is csr
        assert all(getattr(placed, n) is getattr(dag, n) for n in SHARED)
        assert not any(np.shares_memory(getattr(placed, n), getattr(dag, n))
                       for n in PLACED)
        assert placed._plan is None
    assert first.priority is not second.priority
    plans = [first.comm_plan(), second.comm_plan()]
    assert plans[0] is not plans[1] and all(p is not plan for p in plans)
