"""The policy's view of a graph: one class, over the compiled plane.

A policy reads plain-Python columns lowered from a
:class:`~repro.graph.compiled.CompiledGraph`.  The compiled engine
passes its graph; the object engine passes a thunk that runs
``compile_graph`` on its ``TaskGraph``, so both engines plan from the
same numbers by construction (``compile_graph`` keeps task ids, read
order and data homes; ``tests/test_schedulers.py`` checks every column
against the ``TaskGraph`` it came from).

Every column is a ``cached_property``: the default policy never touches
the view, so the hot service path pays only a few attribute stores, and
the object engine lowers nothing unless the policy reads a column.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from functools import cached_property
from typing import Any, Union

import numpy as np
import numpy.typing as npt

from ..config import MachineSpec
from ..graph.compiled import CompiledGraph

__all__ = ["GraphView"]

Durations = Union[npt.NDArray[np.float64], Sequence[float]]


def _buffer(values: npt.ArrayLike, dtype: npt.DTypeLike, code: str) -> array[Any]:
    # ``array.array`` rather than a list of boxed numbers: indexing and
    # iteration yield the same ints/floats in the same order, at 8 bytes
    # per entry instead of ~32 — policy sweeps at N = 400 keep ~1 GB of
    # boxed numbers off the worker heap.
    return array(code, np.ascontiguousarray(values, dtype=dtype).tobytes())


class GraphView:
    """Read-only view of one compiled task graph on one machine.

    ``cg`` and ``durations`` may each be given as a zero-argument
    callable producing the value; it is called on the first column read.

    All per-task columns are indexed by task id; task ids are a
    topological order (a builder invariant the engines already rely on):

    * ``durations[t]`` — simulated seconds of task ``t``, bit-identical
      to what the engine will charge;
    * ``node[t]`` — the graph's owner-computes placement;
    * ``kinds[t]`` / ``iterations[t]`` — kernel name and iteration;
    * ``out_bytes[t]`` — bytes of the version ``t`` writes (0 if none);
    * ``consumers[t]`` — ids of tasks reading ``t``'s output, in edge
      order (ascending consumer id, duplicates kept);
    * ``inputs[t]`` — ``(producer_id, nbytes, source_node)`` per read,
      in the task's read order; ``producer_id`` is -1 for initial data.
    """

    def __init__(self, cg: Union[CompiledGraph, Callable[[], CompiledGraph]],
                 machine: MachineSpec,
                 durations: Union[Durations, Callable[[], Durations]]) -> None:
        self._lower = cg
        self._raw_durations = durations
        self.num_nodes = machine.nodes
        self.cores = machine.cores
        self.bandwidth = machine.network.bandwidth
        self.latency = machine.network.latency
        #: Optional repro.topology.Topology — policies may inspect the
        #: routed interconnect / heterogeneity (None = uniform clique).
        self.topology = machine.topology

    @cached_property
    def _cg(self) -> CompiledGraph:
        return self._lower() if callable(self._lower) else self._lower

    @property
    def n_tasks(self) -> int:
        return self._cg.n_tasks

    @cached_property
    def durations(self) -> Sequence[float]:
        raw = self._raw_durations
        return _buffer(raw() if callable(raw) else raw, np.float64, "d")

    @cached_property
    def node(self) -> Sequence[int]:
        return _buffer(self._cg.node, np.int32, "i")

    @cached_property
    def kinds(self) -> Sequence[str]:
        names = self._cg.kind_names
        return [names[c] for c in self._cg.kind_codes.tolist()]

    @cached_property
    def iterations(self) -> Sequence[int]:
        return _buffer(self._cg.iteration, np.int32, "i")

    @cached_property
    def out_bytes(self) -> Sequence[int]:
        cg = self._cg
        out = np.zeros(cg.n_tasks, dtype=np.int64)
        has = cg.write_id >= 0
        out[has] = cg.data_nbytes[cg.write_id[has]]
        return _buffer(out, np.int64, "q")

    @cached_property
    def consumers(self) -> list[list[int]]:
        ptr, ids = self._cg.consumers_csr()
        ptr_l = ptr.tolist()
        ids_l = ids.tolist()
        return [ids_l[ptr_l[t]:ptr_l[t + 1]] for t in range(self._cg.n_tasks)]

    @cached_property
    def inputs(self) -> list[list[tuple[int, int, int]]]:
        cg = self._cg
        ptr = cg.read_ptr.tolist()
        rids = cg.read_ids.tolist()
        prod = cg.data_producer.tolist()
        src = cg.data_source_node.tolist()
        nbytes = cg.data_nbytes.tolist()
        return [[(prod[d], nbytes[d], src[d]) for d in rids[ptr[t]:ptr[t + 1]]]
                for t in range(cg.n_tasks)]

    def comm_cost(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` over one link (latency + wire)."""
        return self.latency + nbytes / self.bandwidth
