"""Exact communication-volume counting on task graphs.

Mirrors the runtime behaviour described in §V-C: each tile needed by a
remote task is sent once per (version, destination node) pair — StarPU
caches received data, so several tasks on the same node reading the same
version trigger a single transfer — and every transfer is a point-to-point
message of one tile.

The compiled graph's communication plan states that rule once, one row
per message the simulator core sends, so the count is a reduction of the
plan.  :mod:`repro.comm.fast_counter` (closed form, no graph) is the
independent reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import numpy.typing as npt

from ..graph.compiled import CommPlan, CompiledGraph, compile_graph
from ..graph.task import TaskGraph

__all__ = ["CommStats", "count_communications"]


@dataclass
class CommStats:
    """Result of exact communication counting on one task graph."""

    total_bytes: int = 0
    num_messages: int = 0
    #: bytes sent, per source node
    sent_bytes: dict[int, int] = field(default_factory=dict)
    #: bytes received, per destination node
    recv_bytes: dict[int, int] = field(default_factory=dict)
    #: messages per kernel kind of the consuming task
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total_gbytes(self) -> float:
        return self.total_bytes / 1e9

    def max_node_traffic(self) -> int:
        """Largest per-node total (sent + received) — the bottleneck node."""
        nodes = set(self.sent_bytes) | set(self.recv_bytes)
        if not nodes:
            return 0
        return max(self.sent_bytes.get(n, 0) + self.recv_bytes.get(n, 0) for n in nodes)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.total_gbytes:.3f} GB in {self.num_messages} messages "
            f"({len(self.sent_bytes)} sending nodes)"
        )


def plan_messages(graph: Union[TaskGraph, CompiledGraph]) -> tuple[
        CompiledGraph, CommPlan, npt.NDArray[np.int64], npt.NDArray[np.int32]]:
    """``(compiled graph, its plan, bytes, first consumer)`` per message;
    the first consumer is the lowest-id task waiting at the destination."""
    cg = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)
    plan = cg.comm_plan()
    return cg, plan, cg.data_nbytes[plan.pair_data], plan.rn_ids[plan.pair_rn_start]


def bytes_by(keys: npt.NDArray[np.integer],
             nbytes: npt.NDArray[np.int64]) -> dict[int, int]:
    """Integer-exact byte sums per key that occurs, in key order."""
    present, slot = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(present), dtype=np.int64)
    np.add.at(sums, slot, nbytes)
    return dict(zip(present.tolist(), sums.tolist()))


def count_communications(graph: Union[TaskGraph, CompiledGraph]) -> CommStats:
    """Count every inter-node transfer implied by the graph, exactly once
    per (data version, destination node) pair."""
    cg, plan, nbytes, first = plan_messages(graph)
    kinds = np.bincount(cg.kind_codes[first], minlength=len(cg.kind_names))
    return CommStats(
        total_bytes=int(nbytes.sum()), num_messages=len(nbytes),
        sent_bytes=bytes_by(cg.data_source_node[plan.pair_data], nbytes),
        recv_bytes=bytes_by(plan.pair_dst, nbytes),
        messages_by_kind={cg.kind_names[k]: int(kinds[k])
                          for k in np.flatnonzero(kinds)})
