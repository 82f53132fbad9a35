"""Network model for the runtime simulator.

Each node owns one full-duplex port: an egress channel and an ingress
channel of equal bandwidth, matching the switched point-to-point fabric
(OmniPath) of the paper's platform and its per-tile eager MPI messages.

The egress channel is a *processor-sharing* server with priorities,
approximated by serving messages in fixed-size quanta: the channel always
works on the highest-priority pending message and equal-priority messages
round-robin quantum by quantum.  This models how MPI keeps many
asynchronous sends in flight with the NIC interleaving their DMA — a burst
of bulk broadcasts does not convoy an urgent, critical-path tile behind it
(which a strict FIFO pipe would, grossly overstating the cost of bursts).
Message latency is charged once, on the first quantum.

Arrivals at a node serialize on its ingress channel: each quantum is
delivered at ``max(egress_done, ingress_free + quantum_time)``, so an idle
receiver takes delivery at wire speed while in-cast queues fairly on the
receiving port without stalling senders.  A message is delivered when its
last quantum lands.

With a :class:`repro.topology.CompiledTopology` attached, each quantum
is additionally walked store-and-forward over its pair's static route:
the first hop occupies the source's egress port (plus the route's total
latency on the message's first quantum), every further directed link
serializes quanta on its own free time, every switch with a finite
backplane serializes its contention group, and the final hop serializes
on the destination ingress as before.  On a uniform single-hop topology
the walk degenerates to exactly the arithmetic above — the engines'
bit-equality pin for default (clique) runs.

A served quantum is the plain tuple ``(transfer, egress_done, delivery,
final)``: when the source's egress channel frees, when the quantum lands
at the destination, and whether it completes the message.

Oracle and core share everything here: the server (:class:`NetworkSim`),
the binomial-tree broadcast plan (:func:`binomial_tree`) and the copy a
lost message is retransmitted as (:meth:`Transfer.retransmission`).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from heapq import heappop, heappush
from typing import Optional

from ...config import NetworkSpec

__all__ = ["NetworkSim", "Transfer", "binomial_tree"]

#: Default service quantum: a quarter of the paper's 2 MB tiles.
DEFAULT_QUANTUM = 512 * 1024

_INF = float("inf")


class Transfer:
    """One point-to-point message (possibly served as several quanta)."""

    __slots__ = ("key", "keys", "src", "dst", "nbytes", "priority", "submitted",
                 "remaining", "started", "end")

    def __init__(self, key, src: int, dst: int, nbytes: int, priority: float):
        self.key = key
        self.keys = [key]  # aggregation may coalesce several tiles
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.priority = priority
        self.submitted = -1.0
        self.remaining = nbytes  # bytes not yet pushed into the egress port
        self.started = -1.0  # first quantum's egress_done; -1.0 until served
        self.end = -1.0  # delivery time of the final quantum

    def retransmission(self) -> Transfer:
        """A fresh, unsent copy of this (lost) message carrying every
        aggregated payload — dropping ``keys`` would strand the tiles
        that piggy-backed on it."""
        fresh = Transfer(self.key, self.src, self.dst, self.nbytes,
                         self.priority)
        fresh.keys = list(self.keys)
        return fresh


def binomial_tree(dsts, prios):
    """Plan one binomial-tree broadcast to ``dsts`` (``prios[k]`` is the
    urgency of ``dsts[k]``).

    Urgent destinations sit closest to the root: with the root at index 0
    and the destinations behind it in decreasing priority, the node at
    index ``i`` is served by the one at ``i - 2^floor(log2 i)``, and each
    edge carries the highest priority in the subtree it serves.  Returns
    ``(sends, forwards)``: the root's own ``(dst, priority)`` edges, and
    ``{node: [(child, priority), ...]}`` for every destination that
    relays.  Both engines execute this plan, so it is stated once.
    """
    n = len(dsts)
    order = sorted(range(n), key=lambda k: -prios[k])
    ring = [None] + [dsts[k] for k in order]
    subtree_prio = [0.0] + [prios[k] for k in order]
    children: list[list[int]] = [[] for _ in ring]
    for i in range(1, n + 1):
        children[i - (1 << (i.bit_length() - 1))].append(i)
    for i in range(n, 0, -1):  # a node's children all sit behind it
        subtree_prio[i] = max([subtree_prio[i]]
                              + [subtree_prio[c] for c in children[i]])

    def edges(i: int) -> list:
        return [(ring[c], subtree_prio[c]) for c in children[i]]

    return edges(0), {ring[i]: edges(i) for i in range(1, n + 1)
                      if children[i]}


class NetworkSim:
    """Tracks per-node channel occupancy and schedules transfers."""

    def __init__(self, spec: NetworkSpec, num_nodes: int,
                 quantum: int = DEFAULT_QUANTUM, aggregate: bool = False,
                 wire_factor: Optional[Callable[[int, int, float], float]] = None,
                 topology=None):
        if quantum < 1:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.spec = spec
        self.num_nodes = num_nodes
        self.quantum = quantum
        # Hot-path aliases: egress_freed runs once per quantum (millions of times
        # at paper scale); avoid the dataclass attribute chain.
        self._bandwidth = spec.bandwidth
        self._latency = spec.latency
        #: Optional :class:`repro.topology.CompiledTopology`: quanta are
        #: then walked over per-pair routes with per-link occupancy and
        #: switch contention instead of the scalar single-hop model.  The
        #: compiled tables are static and shared; the per-run occupancy
        #: state (link/switch free times) lives here.
        self._topo = topology
        if topology is not None:
            if topology.num_nodes != num_nodes:
                raise ValueError(
                    f"topology has {topology.num_nodes} nodes but the "
                    f"network serves {num_nodes}")
            self._link_free = [0.0] * topology.n_edges
            self._switch_free = [0.0] * topology.n_switches
        else:
            self._link_free = None
            self._switch_free = None
        #: Fault-injection hook (repro.runtime.faults): multiplies the wire
        #: time of each quantum served on (src, dst) at a given time.  The
        #: core transcribes egress_freed (and a non-aggregating submit)
        #: inline and does NOT apply it there: with a wire factor set, its
        #: loop serves every quantum through this class.
        self._wire_factor = wire_factor
        #: Coalesce queued messages sharing (source, destination) into one
        #: wire message (single latency): the aggregation optimization the
        #: paper notes Chameleon does not implement (§V-C).  Bytes moved
        #: are unchanged; the message count drops.
        self.aggregate = aggregate
        self._egress_busy = [False] * num_nodes
        self._ingress_free = [0.0] * num_nodes
        # Per-source priority queues of transfers with bytes left to push.
        self._queues: list[list] = [[] for _ in range(num_nodes)]
        # Aggregation index: per source, the queued-but-unstarted transfer
        # headed to each destination (at most one exists — a second submit
        # to the same destination piggy-backs instead of queueing).  Entries
        # go stale once egress_freed starts the transfer; submit validates
        # lazily, so egress_freed stays untouched (the compiled engine's
        # loop inlines it).
        self._unstarted: list[dict] = [{} for _ in range(num_nodes)]
        self._seq = 0
        self.total_bytes = 0
        self.total_messages = 0
        self.busy_time = [0.0] * num_nodes  # egress occupancy per node

    def _push(self, transfer: Transfer) -> None:
        self._seq += 1
        heappush(self._queues[transfer.src],
                 (-transfer.priority, self._seq, transfer))

    def submit(self, transfer: Transfer, now: float) -> Optional[tuple]:
        """Queue a transfer; returns its first quantum if the port is idle."""
        if not 0 <= transfer.src < self.num_nodes:
            raise ValueError(f"bad source node {transfer.src}")
        if not 0 <= transfer.dst < self.num_nodes:
            raise ValueError(f"bad destination node {transfer.dst}")
        if transfer.src == transfer.dst:
            raise ValueError("local data needs no transfer")
        self.total_bytes += transfer.nbytes
        transfer.submitted = now
        if self.aggregate and self._egress_busy[transfer.src]:
            # Piggy-back on the queued (not yet started) message to the same
            # destination instead of paying another per-message latency.
            # O(1): the _unstarted index replaces a scan of the whole heap
            # (quadratic under broadcast bursts); a stale entry just means
            # egress_freed started that message since, so a fresh one is queued.
            pending = self._unstarted[transfer.src]
            queued = pending.get(transfer.dst)
            if queued is not None and queued.started >= 0.0:
                del pending[transfer.dst]
                queued = None
            if queued is not None:
                queued.keys.extend(transfer.keys)
                queued.nbytes += transfer.nbytes
                queued.remaining += transfer.nbytes
                if transfer.priority > queued.priority:
                    # The old heap entry keeps its stale (lower) key;
                    # re-push at the raised priority and let egress_freed
                    # skip the stale entry when it surfaces.
                    queued.priority = transfer.priority
                    self._push(queued)
                return None
        self.total_messages += 1
        self._push(transfer)
        if self._egress_busy[transfer.src]:
            if self.aggregate:
                self._unstarted[transfer.src][transfer.dst] = transfer
            return None
        return self.egress_freed(transfer.src, now)

    def egress_freed(self, src: int, now: float) -> Optional[tuple]:
        """The egress port of ``src`` is free at ``now``: serve the next
        pending quantum (``None`` when nothing is pending)."""
        queue = self._queues[src]
        while queue:
            negprio, _, tr = heappop(queue)
            if negprio == -tr.priority:
                break
            # Stale entry: the transfer's priority was raised after this
            # entry was pushed (aggregation piggy-backing) and a fresh
            # entry with the correct key exists further up the heap.
        else:
            self._egress_busy[src] = False
            return None
        remaining = tr.remaining
        quantum = self.quantum
        size = quantum if quantum < remaining else remaining
        remaining -= size
        tr.remaining = remaining
        dst = tr.dst
        topo = self._topo
        if topo is None:
            wire = size / self._bandwidth
            if self._wire_factor is not None:
                wire *= self._wire_factor(src, dst, now)
            if tr.started < 0.0:  # the first quantum pays the latency
                occupancy = wire + self._latency
                egress_done = tr.started = now + occupancy
            else:
                occupancy = wire
                egress_done = now + wire
            ingress = self._ingress_free[dst] + wire
            delivery = egress_done if egress_done > ingress else ingress
        else:
            # Store-and-forward walk over the pair's static route.  On a
            # uniform single-hop topology every statement reduces to the
            # scalar branch above (the bit-equality pin for cliques).
            pi = src * topo.num_nodes + dst
            path_eid = topo.path_eid
            edge_bw = topo.edge_bw
            p0 = topo.path_ptr[pi]
            p1 = topo.path_ptr[pi + 1]
            e0 = path_eid[p0]
            wire = size / edge_bw[e0]
            wf = self._wire_factor
            if wf is not None:
                wire *= wf(topo.edge_u[e0], topo.edge_v[e0], now)
            if tr.started < 0.0:
                occupancy = wire + topo.pair_lat[pi]
                egress_done = tr.started = now + occupancy
            else:
                occupancy = wire
                egress_done = now + wire
            t = egress_done
            last_wire = wire
            if p1 - p0 > 1:
                edge_sw = topo.edge_sw
                sw_bw = topo.switch_bw
                link_free = self._link_free
                switch_free = self._switch_free
                for k in range(p0 + 1, p1):
                    e = path_eid[k]
                    s = edge_sw[e]
                    if s >= 0:
                        sbw = sw_bw[s]
                        if sbw != _INF:
                            sf = switch_free[s]
                            t = (t if t > sf else sf) + size / sbw
                            switch_free[s] = t
                    hw = size / edge_bw[e]
                    if wf is not None:
                        hw *= wf(topo.edge_u[e], topo.edge_v[e], now)
                    lf = link_free[e]
                    t = (t if t > lf else lf) + hw
                    link_free[e] = t
                    last_wire = hw
            ingress = self._ingress_free[dst] + last_wire
            delivery = t if t > ingress else ingress
        self._ingress_free[dst] = delivery
        self._egress_busy[src] = True
        self.busy_time[src] += occupancy
        if remaining:
            # Equal-priority messages round-robin: continuation quanta go
            # to the back of their priority class.
            seq = self._seq + 1
            self._seq = seq
            heappush(queue, (-tr.priority, seq, tr))
            return tr, egress_done, delivery, False
        tr.end = delivery
        return tr, egress_done, delivery, True
