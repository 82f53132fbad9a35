"""Task graphs for the tiled Cholesky family of operations."""

from .task import DataKey, GraphBuilder, Task, TaskGraph
from .cholesky import (
    build_cholesky_graph,
    build_cholesky_graph_25d,
    cholesky_phase,
    declare_spd_tiles,
)
from .solve import backward_solve_phase, build_posv_graph, forward_solve_phase
from .inversion import (
    build_lauum_graph,
    build_potri_graph,
    build_trtri_graph,
    lauum_phase,
    remap_phase,
    trtri_phase,
)
from .lu import build_lu_graph, build_lu_graph_25d
from .compiled import (
    DAGS,
    CommPlan,
    CompiledGraph,
    compile_cholesky,
    compile_dag,
    compile_graph,
    compile_lauum,
    compile_lu,
    compile_posv,
    compile_potri,
    compile_trtri,
    compiled_critical_path_priorities,
    place,
)
from .priorities import (
    KIND_RANK,
    set_critical_path_priorities,
    set_iteration_priorities,
)
from .properties import (
    GraphStats,
    expected_cholesky_counts,
    expected_lauum_counts,
    expected_trtri_counts,
    graph_stats,
    kind_counts,
    node_task_counts,
    validate_graph,
)

#: Every operation this package describes: name -> (``build_*`` on the
#: object sink, ``compile_*`` on the column sink), both ``(N, b, *layouts)``.
#: The service, the analyzer's matrix and the pins read this table.
OPERATIONS = {
    "cholesky": (build_cholesky_graph, compile_cholesky),
    "lu": (build_lu_graph, compile_lu),
    "posv": (build_posv_graph, compile_posv),
    "trtri": (build_trtri_graph, compile_trtri),
    "lauum": (build_lauum_graph, compile_lauum),
    "potri": (build_potri_graph, compile_potri),
}

__all__ = [  # one line per module, in the order imported above
    "DataKey", "Task", "TaskGraph", "GraphBuilder",
    "build_cholesky_graph", "build_cholesky_graph_25d", "cholesky_phase", "declare_spd_tiles",
    "build_posv_graph", "forward_solve_phase", "backward_solve_phase",
    "build_trtri_graph", "build_lauum_graph", "build_potri_graph",
    "trtri_phase", "lauum_phase", "remap_phase",
    "build_lu_graph", "build_lu_graph_25d",
    "CommPlan", "CompiledGraph", "compile_graph", "compile_cholesky", "compile_lu",
    "compile_posv", "compile_trtri", "compile_lauum", "compile_potri",
    "compiled_critical_path_priorities", "DAGS", "compile_dag", "place",
    "KIND_RANK", "set_iteration_priorities", "set_critical_path_priorities",
    "validate_graph", "kind_counts", "node_task_counts", "expected_cholesky_counts",
    "expected_trtri_counts", "expected_lauum_counts", "GraphStats", "graph_stats",
    "OPERATIONS",
]
