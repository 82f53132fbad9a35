"""Array-based lowering of task graphs (the simulator's fast data plane).

The object representation (:class:`repro.graph.task.Task`, dict-of-list
dependency maps) is convenient to build and validate but tops out around
N = 100 tiles: the paper's headline runs reach N = 600 (~36M tasks), where
per-task Python objects dominate both memory and event-dispatch time.
This module lowers a graph into a :class:`CompiledGraph` of flat numpy
columns — task kind/node/flops/iteration/priority, CSR read adjacency,
per-version producer and byte-size tables — plus a :class:`CommPlan` of
precomputed communication structures (missing-input counts, local-consumer
and remote-needer lists, per-version remote destination lists in
first-need order) that the fast engine
(:func:`repro.runtime.simulator.fast_engine.simulate_compiled`) walks with
integer ids only.

Two ways in, one numbering:

* :func:`compile_graph` lowers any existing :class:`TaskGraph` — the
  reference path, property-tested to drive the fast engine to *exactly*
  the object engine's makespan/bytes/messages;
* :class:`ColumnSink` takes the batches an operation's phases describe
  (:func:`repro.graph.cholesky.cholesky_phase`,
  :func:`repro.graph.solve.forward_solve_phase`, … — the same functions
  that fill a ``GraphBuilder``) and writes the columns directly, never
  materializing a ``Task`` — O(N) vectorized batches instead of O(N^3)
  Python object constructions, which is what makes paper-scale N
  tractable.  Each ``compile_*`` is an operation's description on that
  sink, bit-identical to lowering the object-built graph (pinned in
  ``tests/test_graph_pins.py`` and property-tested); :data:`OPERATIONS`
  lists them.

One adjacency, two reductions: :meth:`CompiledGraph.consumers_csr` (each
task's readers, in task order) is built once per graph, and the priority
sweep and the comm plan (:func:`_build_comm_plan`, for every graph alike)
both reduce it.  Priorities use the same bottom-level recurrence as
:func:`repro.graph.priorities.set_critical_path_priorities`; the column
sink keeps ``level_ranges`` (contiguous batches of mutually independent
tasks) while the description allows, so the reverse sweep runs as ~3N
vectorized segment-max reductions instead of an O(tasks) Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Any, Optional

import numpy as np
import numpy.typing as npt

from ..distributions.base import Distribution
from .cholesky import describe_cholesky
from .inversion import describe_lauum, describe_potri, describe_trtri
from .lu import describe_lu
from .solve import describe_posv
from .task import Batch, DataKey, TaskGraph, Tiles, check_sizes, tile_bytes

__all__ = [
    "CompiledGraph",
    "CommPlan",
    "compile_graph",
    "compile_cholesky",
    "compile_lu",
    "compile_posv",
    "compile_trtri",
    "compile_lauum",
    "compile_potri",
    "compiled_critical_path_priorities",
]

#: Read edges packed at a time by :meth:`CompiledGraph.consumers_csr` (bounds
#: its transient memory; tests shrink it to cross several chunks).
_CSR_CHUNK_EDGES = 1 << 22

#: The same for :func:`_build_comm_plan`, in read edges grouped at a time.
_PLAN_CHUNK_EDGES = 1 << 16

#: Canonical kind -> code table shared by the generic lowering and the
#: column sink, so both produce identical ``kind_codes`` arrays.
#: Unknown kinds are appended dynamically by :func:`compile_graph`.
CANONICAL_KINDS = (
    "POTRF", "TRSM", "SYRK", "GEMM",
    "GETRF", "TRSM_L", "TRSM_U", "GEMM_LU",
    "REDUCE", "REMAP",
    "TRSM_SOLVE", "TRSM_SOLVE_T", "GEMM_RHS", "GEMM_RHS_T",
    "TRTRI", "TRSM_RINV", "TRSM_LINV", "GEMM_INV",
    "TRMM", "LAUUM", "SYRK_T", "GEMM_T",
)


@dataclass
class CommPlan:
    """Precomputed communication bookkeeping for one compiled graph.

    All consumer lists are in task-id order and all destination lists in
    first-need order — the exact orders the object engine discovers them
    in, which is what makes the two engines tie-break identically.
    """

    #: per-task count of inputs not initially present at the task's node
    missing: npt.NDArray[np.int32]
    #: CSR over data ids: consumer tasks co-located with the producer
    lc_ptr: npt.NDArray[np.int64]
    lc_ids: npt.NDArray[np.int32]
    #: remote (data, destination) pairs, one row per eventual wire message
    #: (before any broadcast-tree re-routing): grouped by data id in
    #: first-need order of the destinations.
    pair_data: npt.NDArray[np.int64]
    pair_dst: npt.NDArray[np.int32]
    #: per-pair [start, start + count) slice into ``rn_ids``: the consumer
    #: tasks waiting at that destination, in task-id order
    pair_rn_start: npt.NDArray[np.int64]
    pair_rn_count: npt.NDArray[np.int64]
    rn_ids: npt.NDArray[np.int32]
    #: per data id, the [start, end) slice of its pairs (empty when the
    #: version never leaves its producer)
    kd_ptr: npt.NDArray[np.int64]
    #: (data id, home node) of misplaced initial versions, in the order
    #: the object engine kicks their eager transfers off at t = 0
    initial_sources: tuple[tuple[int, int], ...]


@dataclass
class CompiledGraph:
    """A task graph lowered to flat arrays (see module docstring)."""

    b: int
    width: int
    element_size: int
    kind_names: list[str]
    kind_codes: npt.NDArray[np.int16]  # per task
    node: npt.NDArray[np.int32]  # per task
    flops: npt.NDArray[np.float64]  # per task
    iteration: npt.NDArray[np.int32]  # per task
    priority: npt.NDArray[np.float64]  # an input: all 0 = each run sweeps its own
    #: per task, -1 when the task writes nothing; both lowerings number
    #: produced versions in task order, so the ids ascend with their
    #: producer (the comm plan appends one producer range at a time)
    write_id: npt.NDArray[np.int32]
    read_ptr: npt.NDArray[np.int64]  # len n_tasks + 1
    read_ids: npt.NDArray[np.int32]  # data ids
    n_init: int  # versions that pre-exist the computation (ids 0..n_init-1)
    data_producer: npt.NDArray[np.int32]  # producing task id, -1 for initial
    data_source_node: npt.NDArray[np.int32]  # producer's node / initial home
    data_nbytes: npt.NDArray[np.int64]  # per data id
    #: DataKey per data id — kept by :func:`compile_graph` for tracing;
    #: the column sink skips it (keys are synthesized on demand).
    data_keys: Optional[list[DataKey]] = None
    #: contiguous [lo, hi) task-id batches, in forward topological order,
    #: whose tasks are mutually independent (enables the vectorized
    #: priority sweep); None -> generic Python sweep.
    level_ranges: Optional[list[tuple[int, int]]] = None
    _plan: Optional[CommPlan] = field(default=None, repr=False)
    _cons_csr: Optional[
        tuple[npt.NDArray[np.int64], npt.NDArray[np.int32]]
    ] = field(default=None, repr=False)
    #: memoized :func:`repro.service.hashing.structure_hash` — exact across
    #: reuse of this object; :meth:`reassigned` drops it with the placement.
    _structure_hash: Optional[str] = field(default=None, repr=False)

    @property
    def n_tasks(self) -> int:
        return len(self.kind_codes)

    @property
    def n_data(self) -> int:
        return len(self.data_producer)

    def nodes_used(self) -> int:
        return int(self.node.max()) + 1 if self.n_tasks else 0

    def total_flops(self) -> float:
        return float(self.flops.sum())

    def comm_plan(self) -> CommPlan:
        """The precomputed communication structures (built once, cached)."""
        if self._plan is None:
            self._plan = _build_comm_plan(self)
        return self._plan

    def reassigned(self, node: npt.NDArray[np.int32]) -> "CompiledGraph":
        """A copy of this graph with tasks placed on ``node`` instead.

        Used by migrating scheduler policies (:mod:`repro.schedulers`):
        the structural arrays are shared, the placement-derived columns
        (``node``, ``data_source_node``) are replaced, and the memos that
        read placement — the communication plan and the structure hash —
        are dropped so they are recomputed for the new one.  The consumer
        adjacency does not read placement and stays shared.  Initial data
        keeps its home; a produced version's source follows its producer.
        """
        node = np.ascontiguousarray(node, dtype=self.node.dtype)
        if node.shape != self.node.shape:
            raise ValueError(
                f"assignment has shape {node.shape}, expected {self.node.shape}"
            )
        source = self.data_source_node.copy()
        produced = self.data_producer >= 0
        source[produced] = node[self.data_producer[produced]]
        return replace(self, node=node, data_source_node=source, _plan=None,
                       _structure_hash=None)

    def consumers_csr(
        self,
    ) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.int32]]:
        """CSR over *tasks*: ids of tasks reading each task's output,
        in task-id order (what the priority sweep and the comm plan
        reduce).  Built once and cached (the arrays are treated as
        read-only)."""
        if self._cons_csr is not None:
            return self._cons_csr
        # One sort of packed keys ``producer << shift | consumer``: edges
        # are stored in consumer order, so sorted keys are the stable
        # by-producer order.  Reads of initial versions (producer -1) pack
        # to negative keys, sort to the front and are sliced off; the
        # low bits of the rest are ``ids``.  The keys are written one
        # range of consumers (``_CSR_CHUNK_EDGES`` edges) at a time, so
        # transient memory is the 8-byte key per edge plus one range's
        # 4-byte producer and consumer columns.
        n, read_ptr = self.n_tasks, self.read_ptr
        ptr = np.zeros(n + 1, dtype=np.int64)
        ptr[1:][self.data_producer[self.n_init:]] = np.bincount(
            self.read_ids, minlength=self.n_data)[self.n_init:]
        np.cumsum(ptr, out=ptr)
        shift = n.bit_length()
        keys = np.empty(len(self.read_ids), dtype=np.int64)
        a = 0
        while a < n:
            # as many whole consumers as fit the chunk, at least one
            b = max(a + 1, int(np.searchsorted(
                read_ptr, read_ptr[a] + _CSR_CHUNK_EDGES, side="right")) - 1)
            k = keys[read_ptr[a]:read_ptr[b]]
            k[:] = self.data_producer[self.read_ids[read_ptr[a]:read_ptr[b]]]
            k <<= shift
            k |= np.repeat(np.arange(a, b, dtype=np.int32),
                           np.diff(read_ptr[a : b + 1]))
            a = b
        keys.sort()
        ids = np.empty(ptr[n], dtype=np.int32)
        np.bitwise_and(keys[len(keys) - ptr[n]:], (1 << shift) - 1, out=ids,
                       casting="unsafe")
        self._cons_csr = (ptr, ids)
        return self._cons_csr


def _pairs(version: npt.NDArray[Any], dst: npt.NDArray[np.int32],
           edge: npt.NDArray[np.int64]) -> tuple[npt.NDArray[Any], ...]:
    """Group remote read edges by (version, destination); ``edge`` numbers
    them in need order (ascending).

    One sort of unique keys does it — version, destination and edge packed
    into the bit fields of one integer, so fields come back by shift and
    mask, not division; a sort of plain values is several times faster
    than a stable ``argsort``.  Returns the edges grouped by (version,
    destination) ascending (the ``rn_ids`` layout), then one row per group
    — version, destination, start, count, first edge — with the groups of
    one version put in first-need order, the order of their first edges.
    """
    n = len(edge)
    dst_bits = int(dst.max(initial=0)).bit_length()
    edge_bits = int(edge[-1]).bit_length() if n else 0
    key = (version.astype(np.int64) << dst_bits | dst) << edge_bits | edge
    key.sort()
    edge = key & ((1 << edge_bits) - 1)
    key >>= edge_bits  # the (version, destination) group
    new = np.ones(n, dtype=bool)  # a group starts where the key changes
    np.not_equal(key[1:], key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    first = edge[starts]
    group = key[starts]
    pv = group >> dst_bits
    kd = np.argsort((pv << edge_bits) | first)
    counts = np.diff(starts, append=n)
    pd = (group[kd] & ((1 << dst_bits) - 1)).astype(np.int32)
    return edge, pv[kd], pd, starts[kd], counts[kd], first[kd]


def _build_comm_plan(cg: CompiledGraph) -> CommPlan:
    """The :class:`CommPlan` of ``cg``: a reduction of its read edges, the
    initial versions' in one pass, the produced versions' one producer
    range of :meth:`CompiledGraph.consumers_csr` at a time."""
    n, n_init = cg.n_tasks, cg.n_init
    ptr, ids = cg.consumers_csr()
    missing = np.empty(n, dtype=np.int32)
    np.subtract(cg.read_ptr[1:], cg.read_ptr[:-1], out=missing, casting="unsafe")
    # Local and remote readers of produced versions partition ``ids``, so
    # zeroed buffers (pages cost nothing until written) take them without
    # a concatenation copy.
    lc_ids = np.zeros(len(ids), dtype=np.int32)
    # per-version counts at [d + 1], summed into offsets at the end
    lc_ptr = np.zeros(cg.n_data + 1, dtype=np.int64)
    kd_ptr = np.zeros(cg.n_data + 1, dtype=np.int64)
    edge = np.flatnonzero(cg.read_ids < n_init)
    rn_ids = np.zeros(len(ids) + len(edge), dtype=np.int32)
    n_lc = 0
    pairs = []  # (data, destination, rn start, rn count) rows, by chunk

    # Initial versions: every read waits, except one at the version's home.
    version = cg.read_ids[edge]
    reader = (np.searchsorted(cg.read_ptr, edge, side="right") - 1).astype(np.int32)
    dst = cg.node[reader]
    remote = dst != cg.data_source_node[version]
    np.subtract.at(missing, reader[~remote], 1)
    edge = np.flatnonzero(remote)
    edge, pv, pd, start, count, first = _pairs(version[edge], dst[edge], edge)
    n_rn = len(edge)
    np.take(reader, edge, out=rn_ids[:n_rn])
    pairs.append((pv, pd, start, count))
    head = np.flatnonzero(np.diff(pv, prepend=-1))  # each version's first pair
    kd_ptr[pv[head] + 1] = np.diff(head, append=len(pv))
    # eager transfers start in the order of each version's first read
    initial_sources = tuple((int(d), int(cg.data_source_node[d]))
                            for d in pv[head][np.argsort(first[head])])

    # Produced versions: their ids ascend with their producers, so the
    # groups of one producer range append after everything before it.
    a = 0
    while a < n:
        # as many whole producers as fit the chunk, at least one
        b = max(a + 1, int(np.searchsorted(
            ptr, ptr[a] + _PLAN_CHUNK_EDGES, side="right")) - 1)
        deg = np.diff(ptr[a : b + 1])
        reader = ids[ptr[a] : ptr[b]]
        dst = np.take(cg.node, reader)
        remote = dst != np.repeat(cg.data_source_node[cg.write_id[a:b]], deg)
        local = reader[~remote]
        lc_ids[n_lc : n_lc + len(local)] = local
        n_lc += len(local)
        edge = np.flatnonzero(remote)
        rel = np.repeat(np.arange(b - a, dtype=np.int32), deg)
        edge, pv, pd, start, count, _ = _pairs(rel[edge], dst[edge], edge)
        np.take(reader, edge, out=rn_ids[n_rn : n_rn + len(edge)])
        data = cg.write_id[a + pv].astype(np.int64)
        head = np.flatnonzero(np.diff(pv, prepend=-1))
        kd_ptr[data[head] + 1] = np.diff(head, append=len(pv))
        # a producer's local readers: all of them less its remote groups';
        # a task writing nothing has none, and its 0 lands in lc_ptr[0]
        deg[pv[head]] -= np.add.reduceat(count, head)
        lc_ptr[cg.write_id[a:b] + 1] = deg
        pairs.append((data, pd, n_rn + start, count))
        n_rn += len(edge)
        a = b

    pair_data, pair_dst, pair_rn_start, pair_rn_count = (
        np.concatenate(column) for column in zip(*pairs))
    np.cumsum(lc_ptr, out=lc_ptr)
    np.cumsum(kd_ptr, out=kd_ptr)
    return CommPlan(
        missing=missing,
        lc_ptr=lc_ptr,
        lc_ids=lc_ids[:n_lc],
        pair_data=pair_data,
        pair_dst=pair_dst,
        pair_rn_start=pair_rn_start,
        pair_rn_count=pair_rn_count,
        rn_ids=rn_ids[:n_rn],
        kd_ptr=kd_ptr,
        initial_sources=initial_sources,
    )


def compiled_critical_path_priorities(
    cg: CompiledGraph, durations: npt.NDArray[np.float64]
) -> npt.NDArray[np.float64]:
    """Bottom-level priorities, bit-identical to the object-path sweep.

    ``priority[t] = durations[t] + max(priority of consumers, default 0)``
    — the recurrence of
    :func:`repro.graph.priorities.set_critical_path_priorities`.  With
    ``level_ranges`` available the reverse sweep is a handful of
    ``maximum.reduceat`` calls per level; otherwise it falls back to a
    Python loop over the (topologically ordered) task list.
    """
    n = cg.n_tasks
    cons_ptr, cons_ids = cg.consumers_csr()
    bottom = np.zeros(n, dtype=np.float64)
    if cg.level_ranges is not None:
        for lo, hi in reversed(cg.level_ranges):
            flat_lo, flat_hi = cons_ptr[lo], cons_ptr[hi]
            vals = bottom[cons_ids[flat_lo:flat_hi]]
            succ = np.zeros(hi - lo, dtype=np.float64)
            # Reduce only the non-empty segments: an empty one's start is
            # the next one's, or len(vals) at the end of the level.
            read = np.diff(cons_ptr[lo : hi + 1]) > 0
            if len(vals):
                starts = (cons_ptr[lo:hi][read] - flat_lo).astype(np.int64)
                succ[read] = np.maximum.reduceat(vals, starts)
            bottom[lo:hi] = durations[lo:hi] + succ
        return bottom
    # Generic reverse sweep (tasks are topologically ordered by id).
    ptr = cons_ptr.tolist()
    ids = cons_ids.tolist()
    dur = durations.tolist()
    out = bottom.tolist()
    for t in range(n - 1, -1, -1):
        succ = 0.0
        for c in ids[ptr[t] : ptr[t + 1]]:
            v = out[c]
            if v > succ:
                succ = v
        out[t] = dur[t] + succ
    return np.asarray(out, dtype=np.float64)


# ---------------------------------------------------------------------------
# Generic lowering of an object graph
# ---------------------------------------------------------------------------


def compile_graph(graph: TaskGraph) -> CompiledGraph:
    """Lower an object :class:`TaskGraph` into a :class:`CompiledGraph`.

    Data ids number the initial versions first (declaration order), then
    one id per writing task in task order — the same numbering the column
    sink uses, so ``compile_graph(build_cholesky_graph(...))`` equals
    ``compile_cholesky(...)`` array for array.
    """
    tasks = graph.tasks
    kind_code = {k: i for i, k in enumerate(CANONICAL_KINDS)}
    for t in tasks:  # unknown kinds are appended
        kind_code.setdefault(t.kind, len(kind_code))
    writers = [t for t in tasks if t.write is not None]
    data_keys = [*graph.initial, *(t.write for t in writers)]
    data_id = {k: d for d, k in enumerate(data_keys)}
    n_init = len(graph.initial)
    write_id = np.full(len(tasks), -1, dtype=np.int32)
    write_id[[t.id for t in writers]] = np.arange(n_init, len(data_keys))
    read_ptr = np.zeros(len(tasks) + 1, dtype=np.int64)
    np.cumsum([len(t.reads) for t in tasks], out=read_ptr[1:])

    def column(values: Any, dtype: npt.DTypeLike) -> npt.NDArray[Any]:
        return np.array(list(values), dtype=dtype)

    return CompiledGraph(
        b=graph.b,
        width=graph.width,
        element_size=graph.element_size,
        kind_names=list(kind_code),
        kind_codes=column((kind_code[t.kind] for t in tasks), np.int16),
        node=column((t.node for t in tasks), np.int32),
        flops=column((t.flops for t in tasks), np.float64),
        iteration=column((t.iteration for t in tasks), np.int32),
        priority=column((t.priority for t in tasks), np.float64),
        write_id=write_id,
        read_ptr=read_ptr,
        read_ids=column((data_id[k] for t in tasks for k in t.reads), np.int32),
        n_init=n_init,
        data_producer=column(
            chain(repeat(-1, n_init), (t.id for t in writers)), np.int32),
        data_source_node=column(
            chain((home for home, _ in graph.initial.values()),
                  (t.node for t in writers)), np.int32),
        data_nbytes=column(map(graph.data_bytes, data_keys), np.int64),
        data_keys=data_keys,
    )


# ---------------------------------------------------------------------------
# The column sink: a batch phase written straight into arrays
# ---------------------------------------------------------------------------


def _grown(
    old: npt.NDArray[Any], size: int, keep: Optional[int] = None
) -> npt.NDArray[Any]:
    """``old[:keep]`` (all of it by default) at the head of ``size`` zeroed
    rows — pages nobody has touched yet, which cost nothing until used."""
    if size <= len(old):
        return old
    new = np.zeros(size, dtype=old.dtype)
    kept = old[:keep]
    new[: len(kept)] = kept
    return new


#: "No version": above every id a sink can hand out, so reading an
#: undeclared tile trips the same comparison that detects dependent rows.
_UNDECLARED = np.iinfo(np.int32).max


class ColumnSink:
    """Array twin of :class:`repro.graph.task.GraphBuilder`: the same
    protocol (``declare_tiles``, ``reserve``, ``source_of``, ``emit``), but
    rows land in the :class:`CompiledGraph` columns and never become
    ``Task`` objects — O(N) vectorised batches instead of O(N^3)
    constructions, which is what makes paper-scale N tractable.

    Versions are tracked in one ``(part, i, j)`` array of current data ids
    per matrix name, kept flat.  Ids follow :func:`compile_graph`'s numbering —
    initial versions in declaration order, then one per task — so every
    tile must be declared before the first ``reserve``; after that, phases
    follow one another freely, each reserving room for its own rows.
    ``level_ranges`` are kept as long as no ``emit`` block reads a version
    written inside itself (its rows are then mutually independent: the
    vectorised priority sweep); the comm plan is built on demand, as for
    any other graph.
    """

    def __init__(self, N: int, b: int, element_size: int = 8,
                 width: int = 0) -> None:
        check_sizes(N, b)
        self.N, self.b, self.element_size, self.width = N, b, element_size, width
        self.n_init = 0
        self._cur: dict[str, npt.NDArray[np.int32]] = {}
        #: (ids, bytes) of the versions that are not ``b x b``
        self._odd_sized: list[tuple[Any, int]] = []
        self._n = self._r = 0  # tasks / read edges written so far
        self.kinds = np.empty(0, dtype=np.int16)
        self.flops = np.empty(0, dtype=np.float64)
        self.iteration = np.empty(0, dtype=np.int32)
        self.read_ptr = np.zeros(1, dtype=np.int64)
        self.read_ids = np.empty(0, dtype=np.int32)
        # One column serves as ``data_source_node`` and, past the initial
        # homes, as ``node``: a produced version lives where its task ran.
        self.data_source_node = np.empty(0, dtype=np.int32)
        self._levels: Optional[list[tuple[int, int]]] = []

    @classmethod
    def build(cls, describe: Any, N: int, b: int, *layouts: Any,
              **sized: int) -> CompiledGraph:
        """The arrays ``describe(sink, N, *layouts)`` writes on a new sink:
        every ``compile_*``, as every ``build_*`` is ``GraphBuilder.build``."""
        sink = cls(N, b, **sized)
        describe(sink, N, *layouts)
        return sink.finish()

    def _slots(self, tiles: Tiles) -> Any:
        """Where the tiles' current ids sit in the tracker of their name:
        one flat index per row (flat gathers cost half of (part, i, j)
        ones), or a scalar for a tile every row shares."""
        return (tiles.part * self.N + tiles.i) * self.N + tiles.j

    def _sized(self, name: str, ids: Any) -> None:
        """Note the byte size of new versions ``ids`` of matrix ``name``."""
        nbytes = tile_bytes(name, self.b, self.width, self.element_size)
        if nbytes != self.b * self.b * self.element_size:
            self._odd_sized.append((ids, nbytes))

    def declare_tiles(self, tiles: Tiles, homes: Any, descriptor: str) -> None:
        """Initial versions of ``tiles``, resident at ``homes``."""
        if len(self.data_source_node) != self.n_init:
            raise ValueError("tiles are declared before the first reserve")
        size = (int(np.max(tiles.part)) + 1) * self.N * self.N
        cur = self._cur.get(tiles.name, np.empty(0, dtype=np.int32))
        if len(cur) < size:
            cur = self._cur[tiles.name] = np.concatenate(
                [cur, np.full(size - len(cur), _UNDECLARED, dtype=np.int32)])
        ids = np.arange(self.n_init, self.n_init + len(homes))
        cur[self._slots(tiles)] = ids
        self._sized(tiles.name, ids)
        self.data_source_node = np.concatenate(
            [self.data_source_node, np.asarray(homes, dtype=np.int32)])
        self.n_init += len(homes)

    def reserve(self, tasks: int, reads: int) -> None:
        """Room for ``tasks`` more rows making ``reads`` reads (upper
        bounds; untouched pages cost nothing).  Produced ids start above
        ``n_init``, so the first call ends the declarations."""
        n, r = self._n + tasks, self._r + reads
        self.kinds = _grown(self.kinds, n, self._n)
        self.flops = _grown(self.flops, n, self._n)
        self.iteration = _grown(self.iteration, n, self._n)
        self.read_ptr = _grown(self.read_ptr, n + 1, self._n + 1)
        self.read_ids = _grown(self.read_ids, r, self._r)
        self.data_source_node = _grown(
            self.data_source_node, self.n_init + n, self.n_init + self._n)
        self.node = self.data_source_node[self.n_init :]

    def source_of(self, tiles: Tiles) -> npt.NDArray[np.int32]:
        """Node holding the current version of each tile."""
        return self.data_source_node[self._cur[tiles.name][self._slots(tiles)]]

    def emit(self, iteration: int, *batches: Batch) -> None:
        """Write the batches' rows into one block of task ids."""
        batches = tuple(bt for bt in batches if len(bt.node))
        sizes = [len(bt.node) for bt in batches]
        n = sum(sizes)
        if n == 0:
            return
        lo = self._n
        if lo + n > len(self.kinds):
            raise ValueError(f"{lo + n} tasks emitted, {len(self.kinds)} reserved")
        # Where each row of the block is placed, and where its reads end.
        places: list[Any] = []
        filled = 0
        for bt, size in zip(batches, sizes):
            places.append(slice(filled, filled + size) if bt.at is None else bt.at)
            filled += size
        arity: Any = 1 + len(batches[0].reads)
        if any(1 + len(bt.reads) != arity for bt in batches):
            arity = np.empty(n, dtype=np.int64)
            for bt, at in zip(batches, places):
                arity[at] = 1 + len(bt.reads)
            ends = self._r + np.cumsum(arity)
        else:
            ends = self._r + arity * np.arange(1, n + 1)
        starts = ends - arity
        self.read_ptr[lo + 1 : lo + n + 1] = ends
        self.iteration[lo : lo + n] = iteration
        first_id = self.n_init + lo
        block_ids = np.arange(first_id, first_id + n, dtype=np.int32)
        newest = -1
        for bt, at in zip(batches, places):
            rows = (slice(lo + at.start, lo + at.stop) if isinstance(at, slice)
                    else lo + at)
            self.kinds[rows] = CANONICAL_KINDS.index(bt.kind)
            self.node[rows] = bt.node
            self.flops[rows] = bt.flops
            slot = starts[at]
            for k, t in enumerate((bt.write, *bt.reads)):
                version = self._cur[t.name][self._slots(t)]
                self.read_ids[slot + k] = version
                newest = max(newest, int(version.max()))
            self._cur[bt.write.name][self._slots(bt.write)] = block_ids[at]
            self._sized(bt.write.name, block_ids[at])
        if newest >= first_id + n:
            raise KeyError("a batch reads a tile that was never declared")
        if self._levels is not None:
            if newest < first_id:
                self._levels.append((lo, lo + n))
            else:  # rows depend on each other: no contiguous levels
                self._levels = None
        self._n += n
        self._r = int(ends[-1])

    def finish(self) -> CompiledGraph:
        n, n_data = self._n, self.n_init + self._n
        nbytes = np.full(
            n_data, self.b * self.b * self.element_size, dtype=np.int64)
        for ids, size in self._odd_sized:
            nbytes[ids] = size
        return CompiledGraph(
            b=self.b,
            width=self.width,
            element_size=self.element_size,
            kind_names=list(CANONICAL_KINDS),
            kind_codes=self.kinds[:n],
            node=self.data_source_node[self.n_init : n_data],
            flops=self.flops[:n],
            iteration=self.iteration[:n],
            priority=np.zeros(n, dtype=np.float64),
            write_id=np.arange(self.n_init, n_data, dtype=np.int32),
            read_ptr=self.read_ptr[: n + 1],
            read_ids=self.read_ids[: self._r],
            n_init=self.n_init,
            data_producer=np.concatenate(
                [np.full(self.n_init, -1, dtype=np.int32),
                 np.arange(n, dtype=np.int32)]),
            data_source_node=self.data_source_node[:n_data],
            data_nbytes=nbytes,
            data_keys=None,
            level_ranges=self._levels,
        )


def compile_cholesky(N: int, b: int, dist: Any, element_size: int = 8) -> CompiledGraph:
    """Arrays of ``build_cholesky_graph(N, b, dist)`` — a 2D distribution
    or a :class:`TwoDotFiveD` — from the same description, on the column
    sink; every ``compile_*`` below is its ``build_*`` likewise."""
    return ColumnSink.build(describe_cholesky, N, b, dist, element_size=element_size)


def compile_lu(N: int, b: int, dist: Any, element_size: int = 8) -> CompiledGraph:
    return ColumnSink.build(describe_lu, N, b, dist, element_size=element_size)


def compile_posv(
    N: int, b: int, dist: Distribution, rhs_dist: Distribution, width: int = 0
) -> CompiledGraph:
    return ColumnSink.build(describe_posv, N, b, dist, rhs_dist,
                            width=width if width > 0 else b)


def compile_trtri(N: int, b: int, dist: Distribution) -> CompiledGraph:
    return ColumnSink.build(describe_trtri, N, b, dist)


def compile_lauum(N: int, b: int, dist: Distribution) -> CompiledGraph:
    return ColumnSink.build(describe_lauum, N, b, dist)


def compile_potri(
    N: int, b: int, dist: Distribution, trtri_dist: Optional[Distribution] = None
) -> CompiledGraph:
    return ColumnSink.build(describe_potri, N, b, dist, trtri_dist)
