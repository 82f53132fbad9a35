"""Machine and network models used by the runtime simulator.

The paper's experiments run on the *bora* cluster of PlaFRIM: 42 nodes of
36 Intel Xeon Skylake Gold 6240 cores, connected with a 100 Gb/s OmniPath
network.  Per-core double-precision peak is estimated in the paper as
2.6 GHz x 8 DP flop/cycle x 2 (FMA) = 41.6 GFlop/s, i.e. 1497.6 GFlop/s per
36-core node.  StarPU reserves one core for task management and one for MPI
communications, leaving 34 cores for computation (1414.4 GFlop/s).

This module provides dataclasses describing such a platform, a ``bora()``
preset matching those constants, and the tile-kernel efficiency model used
to turn flop counts into simulated task durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .topology import Topology

__all__ = [
    "NetworkSpec",
    "BORA_EFFECTIVE_NETWORK",
    "BORA_WIRE_NETWORK",
    "KernelModel",
    "MachineSpec",
    "bora",
    "laptop",
]


def _check_constants(model: object, positive: tuple[str, ...],
                     nonnegative: tuple[str, ...]) -> None:
    """Refuse a constant that simulates nonsense (negative, infinite, NaN)."""
    for name in positive + nonnegative:
        value, floor = getattr(model, name), name in nonnegative
        if not (math.isfinite(value) and (value >= 0 if floor else value > 0)):
            raise ValueError(f"{type(model).__name__}.{name} must be finite and "
                             f"{'>=' if floor else '>'} 0, got {value!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Point-to-point network model.

    Each node owns one full-duplex port: an egress channel and an ingress
    channel, each of bandwidth ``bandwidth`` bytes/s.  A transfer of ``s``
    bytes from node A to node B occupies A's egress and B's ingress channels
    for ``s / bandwidth`` seconds after a fixed ``latency``.  Transfers
    through distinct (source, destination) pairs proceed in parallel; this
    is the classical one-port (per direction) bandwidth model and matches
    the per-tile point-to-point MPI transfers performed by StarPU in the
    paper (no collectives, no aggregation).
    """

    bandwidth: float = 12.5e9  # bytes/s (100 Gb/s OmniPath)
    latency: float = 1.5e-6  # seconds per message

    def __post_init__(self) -> None:
        _check_constants(self, ("bandwidth",), ("latency",))

    def transfer_time(self, nbytes: float) -> float:
        """Occupancy time of one channel for a message of ``nbytes``:
        ``latency + nbytes / bandwidth``, the analytic single-message
        cost (the simulator serves messages in quanta, charging the
        latency once, on the first quantum — same total).

        Which *constants* feed this model is a per-experiment choice:
        :data:`BORA_EFFECTIVE_NETWORK` (4 GB/s, 30 us — what StarPU-MPI
        actually achieves end to end, the default of :func:`bora`) for
        reproducing the paper's measured regime, or
        :data:`BORA_WIRE_NETWORK` (12.5 GB/s, 1.5 us — the raw OmniPath
        fabric) for wire-level what-if studies via
        ``bora(P, effective_network=False)``.  See
        ``docs/network-model.md`` ("Calibration").
        """
        return self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class KernelModel:
    """Converts per-tile flop counts into task durations.

    A tile kernel of tile size ``b`` does not reach the core's peak rate:
    small tiles pay a relatively larger O(b^2) memory-traffic and call
    overhead.  We model the achieved rate with a surface-to-volume
    correction,

        rate(b) = peak * efficiency / (1 + b_half / b),

    which saturates for large ``b`` and collapses for small ``b`` --
    reproducing the shape of the paper's Figure 7 (near-peak performance
    as soon as b >= 500 on bora).  ``overhead`` adds a fixed per-task cost
    (runtime submission/scheduling), which penalizes very small tiles.
    """

    peak_flops: float = 41.6e9  # per-core DP peak (bora: 2.6 GHz * 16)
    efficiency: float = 0.92  # large-tile fraction of peak (MKL DGEMM-like)
    b_half: float = 55.0  # tile size at which rate halves vs. asymptote
    overhead: float = 4e-6  # per-task fixed runtime cost (seconds)

    def __post_init__(self) -> None:
        _check_constants(self, ("peak_flops", "efficiency"), ("b_half", "overhead"))

    def rate(self, b: int) -> float:
        """Achieved flop rate (flop/s) for a kernel on a ``b x b`` tile."""
        if b <= 0:
            raise ValueError(f"tile size must be positive, got {b}")
        return self.peak_flops * self.efficiency / (1.0 + self.b_half / b)

    def duration(self, flops: float, b: int) -> float:
        """Simulated duration of a task performing ``flops`` on tiles of size ``b``."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return self.overhead + flops / self.rate(b)


@dataclass(frozen=True)
class MachineSpec:
    """A cluster of ``nodes`` nodes with ``cores`` workers each.

    By default the interconnect is the scalar clique of ``network``
    (uniform bandwidth/latency between every pair) and every node is
    identical.  An optional :class:`repro.topology.Topology` replaces
    the clique with an arbitrary routed interconnect and may overlay
    per-node speed/core heterogeneity; ``topology=None`` keeps today's
    behaviour bit-exactly.  ``network`` stays authoritative for the
    kernel/efficiency model either way.
    """

    nodes: int
    cores: int = 34
    network: NetworkSpec = field(default_factory=NetworkSpec)
    kernel: KernelModel = field(default_factory=KernelModel)
    element_size: int = 8  # double precision
    #: Optional interconnect topology + heterogeneity (None = the scalar
    #: clique model of ``network``, bit-identical to the pre-topology
    #: engines).
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need at least one node, got {self.nodes}")
        if self.cores < 1:
            raise ValueError(f"need at least one core per node, got {self.cores}")
        _check_constants(self, ("element_size",), ())  # an int: > 0 is >= 1
        if self.topology is not None and self.topology.num_nodes != self.nodes:
            raise ValueError(
                f"topology has {self.topology.num_nodes} nodes "
                f"but machine has {self.nodes}")

    def cores_for(self, node: int) -> int:
        """Worker count of ``node`` (topology override or the uniform value)."""
        t = self.topology
        if t is not None and t.cores:
            return t.cores[node]
        return self.cores

    def speed_for(self, node: int) -> float:
        """Compute-speed multiplier of ``node`` (1.0 when homogeneous)."""
        t = self.topology
        if t is not None and t.speed:
            return t.speed[node]
        return 1.0

    @property
    def heterogeneous(self) -> bool:
        """True when the topology declares per-node speed/core overrides."""
        t = self.topology
        return t is not None and (bool(t.speed) or bool(t.cores))

    def with_nodes(self, nodes: int) -> "MachineSpec":
        """Copy of this spec with a different node count."""
        return replace(self, nodes=nodes)

    @property
    def node_peak_flops(self) -> float:
        """Aggregate peak of the compute workers of one node."""
        return self.cores * self.kernel.peak_flops

    def tile_bytes(self, b: int) -> int:
        """Size in bytes of one ``b x b`` tile."""
        return b * b * self.element_size

    def gflops_per_node(self, flops: float, seconds: float) -> float:
        """The paper's figure of merit: F = #flops / (t * P), in GFlop/s."""
        if seconds <= 0:
            raise ValueError(f"duration must be positive, got {seconds}")
        return flops / (seconds * self.nodes) / 1e9


#: Effective per-node point-to-point throughput achieved by StarPU-MPI on
#: a 100 Gb/s link.  The wire moves 12.5 GB/s, but the single communication
#: core, per-message processing, rendezvous handshakes and memory copies
#: derate the achieved rate by roughly 3x; the 30 us latency is likewise an
#: end-to-end software figure, not the fabric's 1 us.  Calibrated so the
#: simulated 2DBC baseline tracks the paper's per-node GFlop/s regime
#: (see EXPERIMENTS.md for the calibration discussion).
BORA_EFFECTIVE_NETWORK = NetworkSpec(bandwidth=4e9, latency=30e-6)

#: The raw fabric numbers, for wire-level what-if studies.
BORA_WIRE_NETWORK = NetworkSpec(bandwidth=12.5e9, latency=1.5e-6)


def bora(nodes: int, effective_network: bool = True) -> MachineSpec:
    """The paper's *bora* platform with ``nodes`` nodes.

    36 cores per node, 2 reserved by StarPU (1 task management + 1 MPI), so
    34 compute workers; 41.6 GFlop/s per-core peak.  By default the network
    uses :data:`BORA_EFFECTIVE_NETWORK` (what StarPU-MPI actually achieves);
    pass ``effective_network=False`` for raw 100 Gb/s wire parameters.
    """
    net = BORA_EFFECTIVE_NETWORK if effective_network else BORA_WIRE_NETWORK
    return MachineSpec(nodes=nodes, cores=34, network=net)


def laptop(nodes: int = 4, cores: int = 4) -> MachineSpec:
    """A small platform preset convenient for tests and examples."""
    return MachineSpec(
        nodes=nodes,
        cores=cores,
        network=NetworkSpec(bandwidth=1e9, latency=10e-6),
        kernel=KernelModel(peak_flops=5e9),
    )
