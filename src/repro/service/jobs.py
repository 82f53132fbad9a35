"""Job specifications for the sweep service.

A :class:`JobSpec` is the *complete*, JSON-serializable description of one
simulation point: algorithm, problem size, distribution, machine model,
engine choice, simulator options and (optionally) a seeded fault plan.
Two specs that serialize to the same canonical JSON are the same point —
the canonical form is the input of the content hash
(:mod:`repro.service.hashing`), so every field here participates in cache
invalidation.  See ``docs/service.md`` ("Job schema").

Distributions, machines and fault plans travel as plain dicts with a
``kind``/flat-field layout rather than pickled objects: the store must be
readable across processes and sessions, and the hash must not depend on
interpreter details.
"""

from __future__ import annotations

import json
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from typing import Any, Optional, Union

from ..config import KernelModel, MachineSpec, NetworkSpec
from ..distributions import (
    BlockCyclic2D,
    Distribution,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from ..topology import check_topology_spec, topology_from_spec, topology_to_spec
from ..runtime.faults import (
    FaultPlan,
    LinkDegradation,
    SlowdownWindow,
    WorkerCrash,
)

__all__ = [
    "JobSpec",
    "canonical_json",
    "dist_to_spec",
    "dist_from_spec",
    "machine_to_spec",
    "machine_from_spec",
    "faults_to_spec",
    "faults_from_spec",
]

#: Algorithms the runner knows how to build graphs for.
ALGORITHMS = ("cholesky", "lu")
ENGINES = ("compiled", "object")


def _policy_names() -> tuple[str, ...]:
    # Deferred import: repro.schedulers pulls in the graph/compiled stack,
    # which this module must not load at import time (the service CLI
    # imports jobs for --help before any heavy work).
    from ..schedulers import POLICIES

    return tuple(sorted(POLICIES))


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# distribution <-> spec dict
# --------------------------------------------------------------------------

def dist_to_spec(dist: Union[Distribution, TwoDotFiveD]) -> dict[str, Any]:
    """Serialize a distribution to a plain, canonical dict."""
    if isinstance(dist, SymmetricBlockCyclic):
        return {"kind": "sbc", "r": dist.r, "variant": dist.variant}
    if isinstance(dist, BlockCyclic2D):
        return {"kind": "bc2d", "p": dist.p, "q": dist.q}
    if isinstance(dist, RowCyclic1D):
        return {"kind": "row1d", "P": dist.num_nodes}
    if isinstance(dist, TwoDotFiveD):
        return {"kind": "2.5d", "base": dist_to_spec(dist.base), "c": dist.c}
    raise TypeError(
        f"cannot serialize distribution {dist!r}; supported kinds: "
        "sbc, bc2d, row1d, 2.5d"
    )


def _known_only(what: str, spec: Mapping[str, Any], known: Collection[str]) -> None:
    """Refuse a key nobody reads: a misspelt option would otherwise run —
    and cache — the default point (at the top level and below it)."""
    unknown = spec.keys() - known
    if unknown:
        raise ValueError(f"unknown {what} field(s) {sorted(unknown)}; "
                         f"use one of {sorted(known)}")


#: The keys each distribution kind is spelt with.
_DIST_FIELDS = {
    "sbc": {"kind", "r", "variant"},
    "bc2d": {"kind", "p", "q"},
    "row1d": {"kind", "P"},
    "2.5d": {"kind", "base", "c"},
}


def _check_dist(spec: Mapping[str, Any]) -> None:
    kind = spec.get("kind")
    if kind not in _DIST_FIELDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    _known_only(f"{kind} distribution", spec, _DIST_FIELDS[kind])
    if kind == "2.5d":
        _check_dist(spec["base"])


def dist_from_spec(spec: Mapping[str, Any]) -> Union[Distribution, TwoDotFiveD]:
    """Rebuild a distribution from its spec dict."""
    _check_dist(spec)
    kind = spec["kind"]
    if kind == "sbc":
        return SymmetricBlockCyclic(int(spec["r"]),
                                    variant=str(spec.get("variant", "extended")))
    if kind == "bc2d":
        return BlockCyclic2D(int(spec["p"]), int(spec["q"]))
    if kind == "2.5d":
        base = dist_from_spec(spec["base"])
        if isinstance(base, TwoDotFiveD):
            raise ValueError("2.5d base must be a 2D distribution")
        return TwoDotFiveD(base, int(spec["c"]))
    return RowCyclic1D(int(spec["P"]))


# --------------------------------------------------------------------------
# machine <-> spec dict
# --------------------------------------------------------------------------

def machine_to_spec(machine: MachineSpec) -> dict[str, Any]:
    """Flatten a :class:`repro.config.MachineSpec` to a canonical dict.

    The interconnect topology (when attached) is embedded under
    ``"topology"`` via :func:`repro.topology.topology_to_spec` — it
    changes simulated timings, so it must reach the config digest;
    ``topology=None`` serializes as ``None`` and reproduces the historic
    spec shape plus one constant key.
    """
    return {
        "nodes": machine.nodes,
        "cores": machine.cores,
        "bandwidth": machine.network.bandwidth,
        "latency": machine.network.latency,
        "peak_flops": machine.kernel.peak_flops,
        "efficiency": machine.kernel.efficiency,
        "b_half": machine.kernel.b_half,
        "overhead": machine.kernel.overhead,
        "element_size": machine.element_size,
        "topology": (None if machine.topology is None
                     else topology_to_spec(machine.topology)),
    }


_MACHINE_FIELDS = frozenset({
    "nodes", "cores", "bandwidth", "latency", "peak_flops", "efficiency",
    "b_half", "overhead", "element_size", "topology"})


def _check_machine(spec: Mapping[str, Any]) -> None:
    _known_only("machine", spec, _MACHINE_FIELDS)
    if spec.get("topology") is not None:
        check_topology_spec(spec["topology"])


def machine_from_spec(spec: Mapping[str, Any]) -> MachineSpec:
    """Rebuild a :class:`MachineSpec` from its flattened dict."""
    _check_machine(spec)
    tspec = spec.get("topology")
    return MachineSpec(
        nodes=int(spec["nodes"]),
        cores=int(spec["cores"]),
        network=NetworkSpec(bandwidth=float(spec["bandwidth"]),
                            latency=float(spec["latency"])),
        kernel=KernelModel(peak_flops=float(spec["peak_flops"]),
                           efficiency=float(spec["efficiency"]),
                           b_half=float(spec["b_half"]),
                           overhead=float(spec["overhead"])),
        element_size=int(spec["element_size"]),
        topology=None if tspec is None else topology_from_spec(tspec),
    )


# --------------------------------------------------------------------------
# fault plan <-> spec dict
# --------------------------------------------------------------------------

def faults_to_spec(plan: Optional[FaultPlan]) -> Optional[dict[str, Any]]:
    """Serialize a :class:`FaultPlan` (None stays None)."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "loss_rate": plan.loss_rate,
        "retransmit_timeout": plan.retransmit_timeout,
        "slowdowns": [
            {"node": w.node, "factor": w.factor, "start": w.start, "end": w.end}
            for w in plan.slowdowns
        ],
        "links": [
            {"factor": ln.factor, "src": ln.src, "dst": ln.dst,
             "start": ln.start, "end": ln.end}
            for ln in plan.links
        ],
        "crashes": [
            {"node": c.node, "after_tasks": c.after_tasks} for c in plan.crashes
        ],
    }


#: The keys of a fault plan, and of a row of each of its lists.
_FAULT_FIELDS = {"seed", "loss_rate", "retransmit_timeout", "slowdowns",
                 "links", "crashes"}
_FAULT_ROW_FIELDS = {
    "slowdowns": {"node", "factor", "start", "end"},
    "links": {"factor", "src", "dst", "start", "end"},
    "crashes": {"node", "after_tasks"},
}


def _check_faults(spec: Optional[Mapping[str, Any]]) -> None:
    if spec is None:
        return
    _known_only("fault plan", spec, _FAULT_FIELDS)
    for rows, fields in _FAULT_ROW_FIELDS.items():
        for row in spec.get(rows, ()):
            _known_only(f"fault plan {rows} row", row, fields)


def faults_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[FaultPlan]:
    """Rebuild a :class:`FaultPlan` from its spec dict (None stays None)."""
    if spec is None:
        return None
    _check_faults(spec)
    return FaultPlan(
        seed=int(spec.get("seed", 0)),
        loss_rate=float(spec.get("loss_rate", 0.0)),
        retransmit_timeout=float(spec.get("retransmit_timeout", 1e-3)),
        slowdowns=tuple(
            SlowdownWindow(node=int(w["node"]), factor=float(w["factor"]),
                           start=float(w.get("start", 0.0)),
                           end=float(w.get("end", float("inf"))))
            for w in spec.get("slowdowns", ())
        ),
        links=tuple(
            LinkDegradation(factor=float(ln["factor"]),
                            src=int(ln.get("src", -1)),
                            dst=int(ln.get("dst", -1)),
                            start=float(ln.get("start", 0.0)),
                            end=float(ln.get("end", float("inf"))))
            for ln in spec.get("links", ())
        ),
        crashes=tuple(
            WorkerCrash(node=int(c["node"]), after_tasks=int(c["after_tasks"]))
            for c in spec.get("crashes", ())
        ),
    )


# --------------------------------------------------------------------------
# the job spec itself
# --------------------------------------------------------------------------

def _freeze(obj: Any) -> Any:
    """Recursively convert dicts/lists to hashable tuples (for frozen specs)."""
    if isinstance(obj, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    return obj


def _thaw(obj: Any) -> Any:
    """Inverse of :func:`_freeze` for the dict/list shapes specs use."""
    if isinstance(obj, tuple):
        if obj and all(isinstance(kv, tuple) and len(kv) == 2
                       and isinstance(kv[0], str) for kv in obj):
            return {k: _thaw(v) for k, v in obj}
        return [_thaw(v) for v in obj]
    return obj


@dataclass(frozen=True)
class JobSpec:
    """One simulation point, fully described (see the module docstring).

    Build instances with :meth:`make` (accepts live ``Distribution`` /
    ``MachineSpec`` / ``FaultPlan`` objects) or :meth:`from_dict` (plain
    JSON data).  The frozen dataclass stores the dict-shaped fields in a
    frozen (tuple) form so specs are hashable; :meth:`to_dict` returns
    the canonical plain-JSON shape.
    """

    algorithm: str
    ntiles: int
    b: int
    dist: tuple[Any, ...]  # frozen dist spec
    machine: tuple[Any, ...]  # frozen machine spec
    engine: str = "compiled"
    synchronized: bool = False
    broadcast: str = "direct"
    aggregate: bool = False
    faults: Optional[tuple[Any, ...]] = None
    collect_metrics: bool = False
    #: Scheduling policy (a :data:`repro.schedulers.POLICIES` name).  Part
    #: of the config digest — sweeping policies re-simulates each point —
    #: but NOT of the structure hash: policies act at simulation time, the
    #: built graph is the same.
    policy: str = "critical-path"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; use one of {ALGORITHMS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; use one of {ENGINES}"
            )
        if self.broadcast not in ("direct", "tree"):
            raise ValueError(f"unknown broadcast mode {self.broadcast!r}")
        if self.ntiles < 1 or self.b < 1:
            raise ValueError("ntiles and b must be positive")
        names = _policy_names()
        if self.policy not in names:
            raise ValueError(
                f"unknown scheduler policy {self.policy!r}; "
                f"use one of {names}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def make(
        cls,
        algorithm: str,
        ntiles: int,
        b: int,
        dist: Union[Distribution, TwoDotFiveD, Mapping[str, Any]],
        machine: Union[MachineSpec, Mapping[str, Any]],
        engine: str = "compiled",
        synchronized: bool = False,
        broadcast: str = "direct",
        aggregate: bool = False,
        faults: Union[FaultPlan, Mapping[str, Any], None] = None,
        collect_metrics: bool = False,
        policy: str = "critical-path",
    ) -> JobSpec:
        """Build a spec from live objects or plain dicts."""
        dspec = dist if isinstance(dist, Mapping) else dist_to_spec(dist)
        mspec = (machine if isinstance(machine, Mapping)
                 else machine_to_spec(machine))
        fspec = (faults_to_spec(faults) if isinstance(faults, FaultPlan)
                 else faults)
        return cls(
            algorithm=algorithm,
            ntiles=int(ntiles),
            b=int(b),
            dist=_freeze(dspec),
            machine=_freeze(mspec),
            engine=engine,
            synchronized=bool(synchronized),
            broadcast=broadcast,
            aggregate=bool(aggregate),
            faults=None if fspec is None else _freeze(fspec),
            collect_metrics=bool(collect_metrics),
            policy=policy,
        )

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> JobSpec:
        """Rebuild a spec from :meth:`to_dict` output (JSON data).

        A key that is not a field — of the spec, or of its distribution,
        machine, topology or fault plan — raises ``ValueError``: a misspelt
        option would otherwise run — and cache — the default point.
        """
        _known_only("JobSpec", d, cls.__dataclass_fields__.keys())
        _check_dist(d["dist"])
        _check_machine(d["machine"])
        _check_faults(d.get("faults"))
        return cls.make(
            algorithm=d["algorithm"],
            ntiles=d["ntiles"],
            b=d["b"],
            dist=d["dist"],
            machine=d["machine"],
            engine=d.get("engine", "compiled"),
            synchronized=d.get("synchronized", False),
            broadcast=d.get("broadcast", "direct"),
            aggregate=d.get("aggregate", False),
            faults=d.get("faults"),
            collect_metrics=d.get("collect_metrics", False),
            policy=d.get("policy", "critical-path"),
        )

    # -- canonical views ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON shape; the canonical serialization of the point."""
        return {
            "algorithm": self.algorithm,
            "ntiles": self.ntiles,
            "b": self.b,
            "dist": _thaw(self.dist),
            "machine": _thaw(self.machine),
            "engine": self.engine,
            "synchronized": self.synchronized,
            "broadcast": self.broadcast,
            "aggregate": self.aggregate,
            "faults": None if self.faults is None else _thaw(self.faults),
            "collect_metrics": self.collect_metrics,
            "policy": self.policy,
        }

    def canonical(self) -> str:
        """Canonical JSON of the full spec (the config-digest input)."""
        return canonical_json(self.to_dict())

    def structure_fields(self) -> dict[str, Any]:
        """The subset of fields the task-graph *structure* depends on.

        Everything else (machine constants, engine, simulator options,
        fault plan, scheduler policy) changes timing but not the graph's
        tasks/edges; see ``docs/service.md`` ("Content hash").
        """
        machine = _thaw(self.machine)
        return {
            "algorithm": self.algorithm,
            "ntiles": self.ntiles,
            "b": self.b,
            "dist": _thaw(self.dist),
            "element_size": machine["element_size"],
        }

    # -- live objects -------------------------------------------------------

    def distribution(self) -> Union[Distribution, TwoDotFiveD]:
        return dist_from_spec(_thaw(self.dist))

    def machine_spec(self) -> MachineSpec:
        return machine_from_spec(_thaw(self.machine))

    def fault_plan(self) -> Optional[FaultPlan]:
        return faults_from_spec(None if self.faults is None
                                else _thaw(self.faults))

    def with_(self, **changes: Any) -> JobSpec:
        """Copy with plain-field changes (dist/machine/faults take dicts)."""
        d = self.to_dict()
        d.update(changes)
        return JobSpec.from_dict(d)

    # avoid accidental use of dataclasses.replace on frozen-tuple fields
    replace = with_

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dist = _thaw(self.dist)
        return (f"JobSpec({self.algorithm} N={self.ntiles} b={self.b} "
                f"dist={dist.get('kind')} engine={self.engine})")
