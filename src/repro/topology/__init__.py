"""Pluggable interconnect topologies and node heterogeneity.

The machine model's network used to be a hard-coded uniform clique; this
package lifts it into data.  :class:`Topology` describes an arbitrary
weighted interconnect (per-link bandwidth/latency, internal switches
with optional shared-backplane contention) plus per-node speed/core
heterogeneity, the builders provide the common shapes, and
:meth:`Topology.compiled` produces the flat routing tables both
simulator engines consume.  Attach one via
``MachineSpec(..., topology=...)``; the default ``None`` keeps the
scalar clique model bit-exactly.  See ``docs/topology.md``.
"""

from .builders import chain, clique, fat_tree, grid, ring, star
from .model import (
    TOPOLOGY,
    TOPOLOGY_TABLE,
    CompiledTopology,
    Heterogeneity,
    Link,
    Topology,
    topology_from_spec,
    topology_to_spec,
)

__all__ = [
    "Topology",
    "CompiledTopology",
    "Link",
    "Heterogeneity",
    "topology_to_spec",
    "topology_from_spec",
    "TOPOLOGY",
    "TOPOLOGY_TABLE",
    "clique",
    "chain",
    "ring",
    "grid",
    "star",
    "fat_tree",
]
