"""Topology and heterogeneity model for the simulated platform.

The paper's experiments run on a switched clique — every node pair
enjoys a private full-bandwidth channel — and until this layer existed
both simulator engines hard-coded that assumption (one scalar bandwidth,
one scalar latency).  A :class:`Topology` generalizes the machine's
interconnect to an arbitrary weighted graph:

* **vertices** are the ``num_nodes`` compute nodes (ids ``0..P-1``)
  plus optional internal **switches** (ids ``P..P+S-1``) that route
  traffic but run no tasks;
* **links** are undirected and carry their own ``bandwidth`` (bytes/s)
  and ``latency`` (seconds); each link provides one independent channel
  per direction (full duplex), shared by every message whose route
  crosses it;
* **switches** may declare a finite backplane bandwidth
  (:attr:`Topology.switch_bandwidth`), a shared-contention group: every
  quantum forwarded through the switch serializes on it.  ``inf`` (the
  default) models an ideal non-blocking switch;
* **heterogeneity** lives on the compute nodes: per-node ``speed``
  multipliers divide task durations, per-node ``cores`` override the
  machine's uniform worker count.

Routing is static and deterministic: messages follow the unique
minimum-hop path selected by a breadth-first search that visits
neighbors in ascending vertex id (ties break toward the lowest id), so
the same topology always produces the same routes — a prerequisite for
the engines' bit-equality contract and for content-addressed caching.

Transport is store-and-forward per service quantum: the first hop
occupies the source's egress port (plus the path's total latency on a
message's first quantum), every further hop serializes on that link's
per-direction channel, every switch with a finite backplane serializes
its group, and the final hop additionally serializes on the
destination's ingress port.  On a uniform single-hop topology (the
default clique) this degenerates *exactly* — float op for float op —
to the scalar model the engines always used, which is how existing runs
stay bit-identical.  See ``docs/topology.md`` for worked examples.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from collections.abc import Mapping
from typing import Any, Optional, cast

from ..schema import Codec, Key, Table, decode, listof, nullable, record

__all__ = [
    "Link",
    "Heterogeneity",
    "Topology",
    "CompiledTopology",
    "topology_to_spec",
    "topology_from_spec",
    "TOPOLOGY",
    "TOPOLOGY_TABLE",
]

#: Default link parameters, mirroring :class:`repro.config.NetworkSpec`
#: (100 Gb/s OmniPath wire figures).  The topology package must not
#: import ``repro.config`` — config imports *us* for the
#: ``MachineSpec.topology`` field.
DEFAULT_BANDWIDTH = 12.5e9
DEFAULT_LATENCY = 1.5e-6


@dataclass(frozen=True)
class Link:
    """One undirected link: a full-duplex channel pair between vertices.

    ``u``/``v`` index vertices (compute nodes first, then switches);
    normalization in :class:`Topology` guarantees ``u < v``.
    """

    u: int
    v: int
    bandwidth: float = DEFAULT_BANDWIDTH
    latency: float = DEFAULT_LATENCY

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop link on vertex {self.u}")
        if self.bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")


@dataclass(frozen=True)
class Heterogeneity:
    """Per-node compute heterogeneity applied on top of a topology.

    ``speed`` multiplies each node's compute rate (task durations are
    divided by it: 0.5 = half speed, 2.0 = twice as fast); ``cores``
    overrides the machine's per-node worker count.  Either tuple may be
    empty, meaning "keep the machine's homogeneous value".
    """

    speed: tuple[float, ...] = ()
    cores: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "speed", tuple(float(s) for s in self.speed))
        object.__setattr__(self, "cores", tuple(int(c) for c in self.cores))
        for s in self.speed:
            if not s > 0:
                raise ValueError(f"node speed must be positive, got {s}")
        for c in self.cores:
            if c < 1:
                raise ValueError(f"node core count must be >= 1, got {c}")

    @classmethod
    def alternating(cls, num_nodes: int, slow_speed: float = 0.5,
                    period: int = 2) -> "Heterogeneity":
        """Every ``period``-th node (0, period, 2*period, ...) runs at
        ``slow_speed``; the rest at full speed.  A simple two-class mix
        for heterogeneity sweeps."""
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        return cls(speed=tuple(
            slow_speed if i % period == 0 else 1.0 for i in range(num_nodes)
        ))


@dataclass(frozen=True)
class Topology:
    """An interconnect graph plus optional per-node heterogeneity.

    Instances are immutable, hashable and comparable by value — they sit
    inside the frozen :class:`repro.config.MachineSpec` and participate
    in the sweep service's content hash via :func:`topology_to_spec`.
    Use the builders in :mod:`repro.topology.builders` for the common
    shapes; the routing/occupancy tables the engines consume come from
    :meth:`compiled` (memoized per instance).
    """

    num_nodes: int
    links: tuple[Link, ...]
    num_switches: int = 0
    #: per-switch backplane bandwidth (bytes/s); ``inf`` = non-blocking.
    switch_bandwidth: tuple[float, ...] = ()
    #: per-node compute-speed multipliers; empty = homogeneous.
    speed: tuple[float, ...] = ()
    #: per-node core counts; empty = the machine's uniform ``cores``.
    cores: tuple[int, ...] = ()
    #: builder provenance label (``"clique"``, ``"chain"``, ... or
    #: ``"custom"``); cosmetic only — equality and hashing use the graph.
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"need at least one node, got {self.num_nodes}")
        if self.num_switches < 0:
            raise ValueError(f"num_switches must be >= 0, got {self.num_switches}")
        n_vertices = self.num_nodes + self.num_switches
        canon: list[Link] = []
        seen: set[tuple[int, int]] = set()
        for ln in self.links:
            if not (0 <= ln.u < n_vertices and 0 <= ln.v < n_vertices):
                raise ValueError(
                    f"link ({ln.u}, {ln.v}) outside vertices [0, {n_vertices})")
            if ln.u > ln.v:
                ln = replace(ln, u=ln.v, v=ln.u)
            if (ln.u, ln.v) in seen:
                raise ValueError(f"duplicate link ({ln.u}, {ln.v})")
            seen.add((ln.u, ln.v))
            canon.append(ln)
        canon.sort(key=lambda ln: (ln.u, ln.v))
        object.__setattr__(self, "links", tuple(canon))
        sw_bw = tuple(float(b) for b in self.switch_bandwidth)
        if not sw_bw:
            sw_bw = (math.inf,) * self.num_switches
        if len(sw_bw) != self.num_switches:
            raise ValueError(
                f"switch_bandwidth has {len(sw_bw)} entries for "
                f"{self.num_switches} switches")
        for b in sw_bw:
            if not b > 0:
                raise ValueError(f"switch bandwidth must be positive, got {b}")
        object.__setattr__(self, "switch_bandwidth", sw_bw)
        speed = tuple(float(s) for s in self.speed)
        if speed and len(speed) != self.num_nodes:
            raise ValueError(
                f"speed has {len(speed)} entries for {self.num_nodes} nodes")
        for s in speed:
            if not s > 0:
                raise ValueError(f"node speed must be positive, got {s}")
        object.__setattr__(self, "speed", speed)
        cores = tuple(int(c) for c in self.cores)
        if cores and len(cores) != self.num_nodes:
            raise ValueError(
                f"cores has {len(cores)} entries for {self.num_nodes} nodes")
        for c in cores:
            if c < 1:
                raise ValueError(f"node core count must be >= 1, got {c}")
        object.__setattr__(self, "cores", cores)

    # -- derived views -------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.num_nodes + self.num_switches

    @property
    def heterogeneous(self) -> bool:
        """True when any node deviates in speed or core count."""
        return (any(s != 1.0 for s in self.speed)
                or (bool(self.cores) and len(set(self.cores)) > 1))

    def with_heterogeneity(self, hetero: Heterogeneity) -> "Topology":
        """Copy of this topology with the spec's speed/cores applied."""
        changes: dict[str, Any] = {}
        if hetero.speed:
            if len(hetero.speed) != self.num_nodes:
                raise ValueError(
                    f"heterogeneity speed has {len(hetero.speed)} entries "
                    f"for {self.num_nodes} nodes")
            changes["speed"] = hetero.speed
        if hetero.cores:
            if len(hetero.cores) != self.num_nodes:
                raise ValueError(
                    f"heterogeneity cores has {len(hetero.cores)} entries "
                    f"for {self.num_nodes} nodes")
            changes["cores"] = hetero.cores
        return replace(self, **changes) if changes else self

    def compiled(self) -> "CompiledTopology":
        """Routing/occupancy tables (memoized; instances are immutable)."""
        cached: Optional[CompiledTopology] = \
            self.__dict__.get("_compiled")
        if cached is None:
            cached = CompiledTopology(self)
            object.__setattr__(self, "_compiled", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        het = " hetero" if self.heterogeneous else ""
        return (f"Topology({self.kind} P={self.num_nodes} "
                f"links={len(self.links)} switches={self.num_switches}{het})")


class CompiledTopology:
    """Flat routing and occupancy tables derived from a :class:`Topology`.

    Static, shareable across runs (per-run occupancy state — link and
    switch free times — lives on the consumer, :class:`NetworkSim`).
    The columns are plain python lists — the hot consumer indexes
    scalars, and the compute-node count is small — with
    :meth:`as_arrays` providing the numpy form the schedule verifier's
    capacity check vectorizes over.

    * ``edge_u/edge_v/edge_bw`` — one entry per *directed* edge (two per
      link, ids interleaved ``2*i``/``2*i+1``);
    * ``edge_sw`` — the switch a message traverses *before* this edge
      (the edge's source vertex when it is a switch), or -1;
    * ``path_ptr/path_eid`` — CSR of directed-edge routes per ordered
      compute-node pair, indexed ``src * num_nodes + dst``;
    * ``pair_lat`` — per-pair summed link latency, charged once on a
      message's first quantum;
    * ``switch_bw`` — per-switch backplane bandwidth (``inf`` =
      non-blocking, skipped by the walk).
    """

    __slots__ = ("num_nodes", "n_vertices", "n_edges", "n_switches",
                 "edge_u", "edge_v", "edge_bw", "edge_sw", "switch_bw",
                 "path_ptr", "path_eid", "pair_lat", "max_hops", "_arrays")

    def __init__(self, topo: Topology) -> None:
        P = topo.num_nodes
        V = topo.n_vertices
        self.num_nodes = P
        self.n_vertices = V
        self.n_switches = topo.num_switches
        self.switch_bw = list(topo.switch_bandwidth)
        edge_u: list[int] = []
        edge_v: list[int] = []
        edge_bw: list[float] = []
        edge_lat: list[float] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
        for ln in topo.links:
            for a, b in ((ln.u, ln.v), (ln.v, ln.u)):
                eid = len(edge_u)
                edge_u.append(a)
                edge_v.append(b)
                edge_bw.append(ln.bandwidth)
                edge_lat.append(ln.latency)
                adj[a].append((b, eid))
        for rows in adj:
            rows.sort()  # ascending neighbor id => deterministic routes
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_bw = edge_bw
        self.edge_sw = [u - P if u >= P else -1 for u in edge_u]
        self.n_edges = len(edge_u)

        path_ptr = [0] * (P * P + 1)
        path_eid: list[int] = []
        pair_lat = [0.0] * (P * P)
        max_hops = 0
        for src in range(P):
            # BFS with ascending-id neighbor order: minimum-hop routes,
            # ties broken toward the lowest vertex id, deterministically.
            parent_edge = [-1] * V
            visited = [False] * V
            visited[src] = True
            q = deque((src,))
            while q:
                u = q.popleft()
                for v, eid in adj[u]:
                    if not visited[v]:
                        visited[v] = True
                        parent_edge[v] = eid
                        q.append(v)
            for dst in range(P):
                pi = src * P + dst
                if dst != src:
                    if not visited[dst]:
                        raise ValueError(
                            f"topology is disconnected: no route from node "
                            f"{src} to node {dst}")
                    hops: list[int] = []
                    v = dst
                    while v != src:
                        eid = parent_edge[v]
                        hops.append(eid)
                        v = edge_u[eid]
                    hops.reverse()
                    path_eid.extend(hops)
                    pair_lat[pi] = sum(edge_lat[e] for e in hops)
                    if len(hops) > max_hops:
                        max_hops = len(hops)
                path_ptr[pi + 1] = len(path_eid)
        self.path_ptr = path_ptr
        self.path_eid = path_eid
        self.pair_lat = pair_lat
        self.max_hops = max_hops
        self._arrays: Optional[dict[str, Any]] = None

    def pair_edges(self, src: int, dst: int) -> list[int]:
        """Directed-edge ids of the route from ``src`` to ``dst``."""
        pi = src * self.num_nodes + dst
        return self.path_eid[self.path_ptr[pi]:self.path_ptr[pi + 1]]

    def roll_loss(self, loss: Any, src: int, dst: int) -> bool:
        """Decide the fate of one delivery attempt on the (src, dst) route.

        Rolls every edge's per-link attempt counter (in path order) so
        the loss stream depends only on the deterministic route, never
        on which engine asks; the message is lost when any hop drops it.
        On a single-hop route this is exactly ``loss.lost(src, dst)``.
        """
        lost = False
        pi = src * self.num_nodes + dst
        eu = self.edge_u
        ev = self.edge_v
        for k in range(self.path_ptr[pi], self.path_ptr[pi + 1]):
            e = self.path_eid[k]
            if loss.lost(eu[e], ev[e]):
                lost = True
        return lost

    def as_arrays(self) -> dict[str, Any]:
        """Numpy form of the static routing tables (cached)."""
        if self._arrays is None:
            import numpy as np

            self._arrays = {
                "edge_bw": np.asarray(self.edge_bw, dtype=np.float64),
                "edge_sw": np.asarray(self.edge_sw, dtype=np.int64),
                "switch_bw": np.asarray(self.switch_bw, dtype=np.float64),
                "path_ptr": np.asarray(self.path_ptr, dtype=np.int64),
                "path_eid": np.asarray(self.path_eid, dtype=np.int64),
            }
        return self._arrays


# --------------------------------------------------------------------------
# spec serialization (sweep-service content hashing; see docs/service.md)
# --------------------------------------------------------------------------

def _link_row(what: str, row: Any) -> Link:
    if not isinstance(row, (list, tuple)) or len(row) != 4:
        raise ValueError(f"{what} must be a [u, v, bandwidth, latency] row, "
                         f"got {row!r}")
    return Link(*(decode(f"{what}[{i}]", typ, x) for i, (typ, x)
                  in enumerate(zip((int, int, float, float), row))))


#: JSON-safe float: ``inf`` (a non-blocking switch) travels as null.
_INF_AS_NULL = Codec(
    lambda what, b: math.inf if b is None else decode(what, float, b),
    lambda b: None if math.isinf(b) else float(b))

#: The keys of a topology spec: every field that changes routing or
#: heterogeneity, so two topologies serialize equal iff the engines would
#: treat them equally; the sweep service hashes this dict into the config
#: digest (``docs/service.md``, "Job schema").
TOPOLOGY_TABLE: Table = {
    "kind": Key(str, "custom"),
    "num_nodes": Key(int),
    "num_switches": Key(int, 0),
    "links": Key(listof(Codec(_link_row, lambda ln: [
        ln.u, ln.v, float(ln.bandwidth), float(ln.latency)])), ()),
    "switch_bandwidth": Key(listof(_INF_AS_NULL), ()),
    "speed": Key(listof(float), ()),
    "cores": Key(listof(int), ()),
}
#: ``None`` (the historic clique) stays ``None`` both ways.
TOPOLOGY = nullable(record("topology", Topology, TOPOLOGY_TABLE))


def topology_to_spec(topo: Optional[Topology]) -> Optional[dict[str, Any]]:
    """Canonical plain-JSON form of a topology (None stays None)."""
    return cast("Optional[dict[str, Any]]", TOPOLOGY.encode(topo))


def topology_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[Topology]:
    """Rebuild a :class:`Topology` from :func:`topology_to_spec` output;
    ``ValueError`` for anything :data:`TOPOLOGY_TABLE` does not say."""
    return cast("Optional[Topology]", TOPOLOGY.decode("topology", spec))
