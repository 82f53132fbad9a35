"""Task graph representation (sequential task flow, StarPU style).

A :class:`TaskGraph` is a list of :class:`Task` objects referencing
*versioned* data: each tile version is a :class:`DataKey` with a unique
producer task (or an initial descriptor when the version pre-exists the
computation).  Dependencies are therefore implicit — a task depends on the
producers of the versions it reads — exactly how StarPU infers dependencies
from the access modes Chameleon declares.

Builders emit tasks in algorithm order, which is a valid topological order
(every read references an already-emitted version); runtimes rely on this
and the validators check it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat, starmap
from operator import itemgetter
from typing import Any, NamedTuple, Optional

import numpy as np
import numpy.typing as npt

__all__ = ["DataKey", "Tiles", "Batch", "Task", "TaskGraph", "GraphBuilder",
           "check_sizes", "tile_bytes"]


class DataKey(NamedTuple):
    """One immutable version of one tile.

    ``name`` distinguishes matrices ("A" for the symmetric operand, "B" for
    right-hand sides); ``part`` identifies the replica/partial-sum stream in
    2.5D graphs (the slice index; always 0 in 2D graphs).
    """

    name: str
    i: int
    j: int
    ver: int
    part: int = 0


class Tiles(NamedTuple):
    """Tiles of one stream, by coordinates: a :class:`DataKey` per row with
    the version left open.  ``i``, ``j`` and ``part`` are index arrays, or
    scalars standing for every row of the batch."""

    name: str
    i: Any
    j: Any
    part: Any = 0


class Batch(NamedTuple):
    """One kernel applied to many tiles: what a phase hands a sink.

    Every tile kernel here updates its output in place (StarPU's RW access
    mode), so row ``r`` reads the current version of ``write`` at ``r``,
    then of each of ``reads`` at ``r``, and produces the next version of
    ``write``.  Versions are never named: the sink resolves them, batch by
    batch in the order one ``emit`` call lists them.  ``at`` places the
    rows inside that call's block of task ids (default: right after the
    batch before), which is how REDUCE / TRSM pairs and the SYRK / GEMM
    columns stay interleaved the way Algorithm 1 writes them.
    """

    kind: str
    node: Any  #: per-row node ids (1-D array)
    coords: tuple[Any, ...]  #: ``Task.coords``, arrays or scalars
    write: Tiles
    reads: tuple[Tiles, ...]
    flops: float
    at: Optional[Any] = None


def check_sizes(N: int, b: int) -> None:
    """What every builder requires of a problem, said once for both sinks."""
    if N < 1:
        raise ValueError(f"need at least one tile, got N={N}")
    if b < 1:
        raise ValueError(f"tile size must be positive, got b={b}")


def tile_bytes(name: str, b: int, width: int, element_size: int) -> int:
    """Bytes of one version of a tile of matrix ``name``: a right-hand side
    ("B") is ``b x width`` when a width is set, anything else ``b x b``."""
    return b * (width if name == "B" and width else b) * element_size


class Task:
    """One tile kernel invocation placed on one node."""

    __slots__ = (
        "id",
        "kind",
        "node",
        "coords",
        "reads",
        "write",
        "flops",
        "iteration",
        "priority",
    )

    def __init__(
        self,
        id: int,
        kind: str,
        node: int,
        coords: tuple[int, ...],
        reads: tuple[DataKey, ...],
        write: Optional[DataKey],
        flops: float,
        iteration: int,
    ):
        self.id = id
        self.kind = kind
        self.node = node
        self.coords = coords
        self.reads = reads
        self.write = write
        self.flops = flops
        self.iteration = iteration
        self.priority = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Task {self.id} {self.kind}{self.coords} @n{self.node}>"


class TaskGraph:
    """A complete tiled operation: tasks + data versioning metadata."""

    def __init__(self, b: int, width: int = 0, element_size: int = 8):
        self.b = b  # tile size
        self.width = width  # right-hand-side width (0 when unused)
        self.element_size = element_size
        self.tasks: list[Task] = []
        #: DataKey -> producing task id
        self.producer: dict[DataKey, int] = {}
        #: initial DataKey -> (home node, descriptor) where descriptor tells
        #: runtimes how to materialize the data ("spd", "rhs", "zero", ...)
        self.initial: dict[DataKey, tuple[int, str]] = {}

    # -- construction -------------------------------------------------------

    def add_initial(self, key: DataKey, home: int, descriptor: str) -> DataKey:
        """Declare a version that exists before the computation starts."""
        if key in self.initial or key in self.producer:
            raise ValueError(f"data {key} already declared")
        self.initial[key] = (home, descriptor)
        return key

    def add_task(
        self,
        kind: str,
        node: int,
        coords: tuple[int, ...],
        reads: tuple[DataKey, ...],
        write: Optional[DataKey],
        flops: float,
        iteration: int,
    ) -> Task:
        for k in reads:
            if k not in self.producer and k not in self.initial:
                raise ValueError(f"task {kind}{coords} reads undeclared data {k}")
        if write is not None and (write in self.producer or write in self.initial):
            raise ValueError(f"data {write} already has a producer")
        t = Task(len(self.tasks), kind, node, coords, tuple(reads), write, flops, iteration)
        self.tasks.append(t)
        if write is not None:
            self.producer[write] = t.id
        return t

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def data_bytes(self, key: DataKey) -> int:
        """Size in bytes of one version of this datum."""
        return tile_bytes(key.name, self.b, self.width, self.element_size)

    def source_of(self, key: DataKey) -> int:
        """Node where a version is produced (or initially resides)."""
        tid = self.producer.get(key)
        if tid is not None:
            return self.tasks[tid].node
        try:
            return self.initial[key][0]
        except KeyError:
            raise KeyError(f"unknown data {key}") from None

    def consumers(self) -> dict[DataKey, list[int]]:
        """Map version -> ids of tasks reading it (insertion order)."""
        out: dict[DataKey, list[int]] = {}
        for t in self.tasks:
            for k in t.reads:
                out.setdefault(k, []).append(t.id)
        return out

    def dependency_edges(self) -> Iterator[tuple[int, int]]:
        """(producer id, consumer id) pairs — initial data yields no edge."""
        for t in self.tasks:
            for k in t.reads:
                tid = self.producer.get(k)
                if tid is not None:
                    yield (tid, t.id)

    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks)

    def nodes_used(self) -> int:
        return 1 + max(t.node for t in self.tasks) if self.tasks else 0


class GraphBuilder:
    """Stateful helper tracking the current version of every tile.

    Lets several operation builders (POTRF, then TRSM solves, then TRTRI,
    LAUUM, remaps...) compose into a single graph, exactly like Chameleon
    merges the task graphs of chained operations without synchronization.
    """

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        # (name, i, j, part) -> current version number
        self._ver: dict[tuple[str, int, int, int], int] = {}

    @classmethod
    def sized(cls, N: int, b: int, width: int = 0,
              element_size: int = 8) -> "GraphBuilder":
        """A builder on an empty graph of ``N x N`` tiles of size ``b``:
        where every ``build_*`` starts, as ``compile_*`` start from
        ``ColumnSink(N, b)`` — the two places sizes are checked."""
        check_sizes(N, b)
        return cls(TaskGraph(b, width, element_size))

    @classmethod
    def build(cls, describe: Any, N: int, b: int, *layouts: Any,
              **sized: int) -> TaskGraph:
        """The graph ``describe(sink, N, *layouts)`` leaves on a new builder:
        every ``build_*``, as every ``compile_*`` is ``ColumnSink.build``."""
        bld = cls.sized(N, b, **sized)
        describe(bld, N, *layouts)
        return bld.graph

    def declare(
        self, name: str, i: int, j: int, home: int, descriptor: str, part: int = 0
    ) -> DataKey:
        """Declare the initial version of a tile, resident at ``home``."""
        key = DataKey(name, i, j, 0, part)
        self.graph.add_initial(key, home, descriptor)
        self._ver[(name, i, j, part)] = 0
        return key

    # -- the sink protocol of the batch phases ------------------------------
    # (its array twin is :class:`repro.graph.compiled.ColumnSink`)

    @property
    def b(self) -> int:
        return self.graph.b

    @property
    def width(self) -> int:
        return self.graph.width

    def reserve(self, tasks: int, reads: int) -> None:
        """Capacity hint of a phase; lists grow on their own."""

    def declare_tiles(self, tiles: Tiles, homes: Any, descriptor: str) -> None:
        """Declare the initial version of each tile, resident at ``homes``."""
        n = len(homes)
        for i, j, part, home in zip(_column(tiles.i, n), _column(tiles.j, n),
                                    _column(tiles.part, n), homes.tolist()):
            self.declare(tiles.name, i, j, home, descriptor, part)

    def _current(self, tiles: Tiles, n: int) -> list[DataKey]:
        """Latest version of each of ``n`` tiles (KeyError: never declared)."""
        i, j, part = (_column(x, n) for x in tiles[1:])
        ver = map(self._ver.__getitem__, zip(repeat(tiles.name), i, j, part))
        return list(starmap(DataKey, zip(repeat(tiles.name), i, j, ver, part)))

    def source_of(self, tiles: Tiles) -> npt.NDArray[np.int64]:
        """Node holding the current version of each tile: what a phase looks
        at before it describes a move (REMAP skips tiles already at home)."""
        n = max(np.size(x) for x in tiles[1:])
        return np.array([self.graph.source_of(k) for k in self._current(tiles, n)],
                        dtype=np.int64)

    def emit(self, iteration: int, *batches: Batch) -> None:
        """Append the batches' rows as tasks, in block-position order.

        A batch is resolved as a whole — all its reads, then its writes —
        which is what "rows are independent" means, and what the column
        sink does with arrays.
        """
        rows: list[tuple[Any, ...]] = []
        for bt in batches:
            n = len(bt.node)
            reads = [self._current(t, n) for t in (bt.write, *bt.reads)]
            writes = [DataKey(k[0], k[1], k[2], k[3] + 1, k[4]) for k in reads[0]]
            self._ver.update(((k[0], k[1], k[2], k[4]), k[3]) for k in writes)
            at = (range(len(rows), len(rows) + n) if bt.at is None
                  else bt.at.tolist())
            coords = zip(*(_column(c, n) for c in bt.coords))
            rows.extend(zip(at, repeat(bt.kind), bt.node.tolist(), coords,
                            zip(*reads), writes, repeat(bt.flops)))
        if any(bt.at is not None for bt in batches):
            rows.sort(key=itemgetter(0))
        add_task = self.graph.add_task
        for _, kind, node, xy, keys, out, flops in rows:
            add_task(kind, node, xy, keys, out, flops, iteration)


def _column(x: Any, n: int) -> list[int]:
    """``x`` as ``n`` Python ints: an index array's, or a scalar repeated."""
    return x.tolist() if np.ndim(x) else [int(x)] * n
