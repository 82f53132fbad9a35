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
interpreter details.  Each layer of the schema is one :mod:`repro.schema`
table below (:data:`TABLES`), read strictly — a non-object, an unknown or
missing key, a value of the wrong JSON type raise ``ValueError`` — and
written through the same table, so a spec holds what decoding to the live
object and encoding it again gives: what reaches the digest is what runs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Annotated, Any, Optional, Union, cast, get_type_hints

from ..config import KernelModel, MachineSpec, NetworkSpec
from ..distributions import (
    BlockCyclic2D,
    Distribution,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from ..runtime.faults import (
    FaultPlan,
    LinkDegradation,
    SlowdownWindow,
    WorkerCrash,
)
from ..schema import (
    REQUIRED,
    Codec,
    Key,
    Table,
    choice,
    decode,
    encode,
    listof,
    nullable,
    read,
    record,
    write,
)
from ..topology import TOPOLOGY, TOPOLOGY_TABLE

__all__ = [
    "JobSpec",
    "TABLES",
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
BROADCASTS = ("direct", "tree")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# distribution <-> spec dict
# --------------------------------------------------------------------------

def dist_to_spec(dist: Union[Distribution, TwoDotFiveD]) -> dict[str, Any]:
    """Serialize a distribution to a plain, canonical dict."""
    for kind, (build, table) in _DISTS.items():
        if isinstance(dist, build):
            return {"kind": kind, **write(table, dist)}
    raise TypeError(f"cannot serialize distribution {dist!r}; supported "
                    f"kinds: {', '.join(_DISTS)}")


def dist_from_spec(spec: Mapping[str, Any]) -> Union[Distribution, TwoDotFiveD]:
    """Rebuild a distribution from its spec dict."""
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if not isinstance(kind, str) or kind not in _DISTS:
        raise ValueError(f"a distribution must be an object whose 'kind' is "
                         f"one of {sorted(_DISTS)}, got {spec!r}")
    build, table = _DISTS[kind]
    rest = {k: v for k, v in spec.items() if k != "kind"}
    return cast("Union[Distribution, TwoDotFiveD]",
                build(**read(f"{kind} distribution", table, rest)))


_DIST = Codec(lambda _, spec: dist_from_spec(spec), dist_to_spec)
#: ``"kind"`` -> (class, the other keys that kind is spelt with)
_DISTS: dict[str, tuple[type[Any], Table]] = {
    "sbc": (SymmetricBlockCyclic, {"r": Key(int),
                                   "variant": Key(str, "extended")}),
    "bc2d": (BlockCyclic2D, {"p": Key(int), "q": Key(int)}),
    "row1d": (RowCyclic1D, {"P": Key(int)}),
    "2.5d": (TwoDotFiveD, {"base": Key(_DIST), "c": Key(int)}),
}


# --------------------------------------------------------------------------
# machine <-> spec dict
# --------------------------------------------------------------------------

#: The keys of a machine spec: a :class:`repro.config.MachineSpec`
#: flattened, the constants of its ``network`` and ``kernel`` beside its
#: own.  The interconnect topology (when attached) is embedded via
#: :data:`repro.topology.TOPOLOGY` — it changes simulated timings, so it
#: must reach the config digest; ``None`` is the historic clique.
_NETWORK: Table = {"bandwidth": Key(float), "latency": Key(float)}
_KERNEL: Table = {"peak_flops": Key(float), "efficiency": Key(float),
                  "b_half": Key(float), "overhead": Key(float)}
_OWN: Table = {"nodes": Key(int), "cores": Key(int), "element_size": Key(int),
               "topology": Key(TOPOLOGY, None)}
_MACHINE: Table = {**_OWN, **_NETWORK, **_KERNEL}


def machine_to_spec(machine: MachineSpec) -> dict[str, Any]:
    """Flatten a :class:`repro.config.MachineSpec` to a canonical dict."""
    return {**write(_OWN, machine), **write(_NETWORK, machine.network),
            **write(_KERNEL, machine.kernel)}


def machine_from_spec(spec: Mapping[str, Any]) -> MachineSpec:
    """Rebuild a :class:`MachineSpec` from its flattened dict."""
    flat = read("machine", _MACHINE, spec)
    return MachineSpec(
        network=NetworkSpec(**{k: flat.pop(k) for k in _NETWORK}),
        kernel=KernelModel(**{k: flat.pop(k) for k in _KERNEL}), **flat)


_MACHINE_CODEC = Codec(lambda _, spec: machine_from_spec(spec), machine_to_spec)

# --------------------------------------------------------------------------
# fault plan <-> spec dict
# --------------------------------------------------------------------------

#: The keys of a row of each list of a fault plan, and of the plan.
_FAULT_ROWS: dict[str, tuple[type[Any], Table]] = {
    "slowdowns": (SlowdownWindow, {
        "node": Key(int), "factor": Key(float),
        "start": Key(float, 0.0), "end": Key(float, math.inf)}),
    "links": (LinkDegradation, {
        "factor": Key(float), "src": Key(int, -1), "dst": Key(int, -1),
        "start": Key(float, 0.0), "end": Key(float, math.inf)}),
    "crashes": (WorkerCrash, {"node": Key(int), "after_tasks": Key(int)}),
}
_FAULTS: Table = {
    "seed": Key(int, 0),
    "loss_rate": Key(float, 0.0),
    "retransmit_timeout": Key(float, 1e-3),
    **{rows: Key(listof(record(f"fault plan {rows} row", build, table)), ())
       for rows, (build, table) in _FAULT_ROWS.items()},
}
#: ``None`` (no plan) stays ``None``; ``{}`` is the all-defaults plan.
_FAULTS_CODEC = nullable(record("fault plan", FaultPlan, _FAULTS))


def faults_to_spec(plan: Optional[FaultPlan]) -> Optional[dict[str, Any]]:
    """Serialize a :class:`FaultPlan` (None stays None)."""
    return cast("Optional[dict[str, Any]]", _FAULTS_CODEC.encode(plan))


def faults_from_spec(spec: Optional[Mapping[str, Any]]) -> Optional[FaultPlan]:
    """Rebuild a :class:`FaultPlan` from its spec dict (None stays None)."""
    return cast("Optional[FaultPlan]", _FAULTS_CODEC.decode("fault plan", spec))


# --------------------------------------------------------------------------
# the job spec itself
# --------------------------------------------------------------------------

def _positive(what: str, value: Any) -> int:
    if decode(what, int, value) < 1:
        raise ValueError(f"{what} must be positive, got {value!r}")
    return int(value)


def _policy(what: str, value: Any) -> str:
    # Deferred import: repro.schedulers pulls in the graph/compiled stack,
    # which this module must not load at import time (the service CLI
    # imports jobs for --help before any heavy work).
    from ..schedulers import POLICIES

    return str(choice(*sorted(POLICIES)).decode(what, value))


_POSITIVE = Codec(_positive, int)
_PLAIN = dict[str, Any]


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One simulation point, fully described (see the module docstring).

    The fields are the top layer of the schema: ``Annotated[type, JSON
    type]`` where the two differ.  Build instances with :meth:`make` (live
    objects or their dicts) or :meth:`from_dict` (plain JSON data) — one
    path, so equal points are equal specs: a spec compares and hashes by
    its canonical JSON.  The dict-shaped fields are canonical plain dicts;
    treat them as read-only (:meth:`to_dict` returns a copy).
    """

    algorithm: Annotated[str, choice(*ALGORITHMS)]
    ntiles: Annotated[int, _POSITIVE]
    b: Annotated[int, _POSITIVE]
    dist: Annotated[_PLAIN, _DIST]
    machine: Annotated[_PLAIN, _MACHINE_CODEC]
    engine: Annotated[str, choice(*ENGINES)] = "compiled"
    synchronized: bool = False
    broadcast: Annotated[str, choice(*BROADCASTS)] = "direct"
    aggregate: bool = False
    faults: Annotated[Optional[_PLAIN], _FAULTS_CODEC] = None
    collect_metrics: bool = False
    #: Scheduling policy (a :data:`repro.schedulers.POLICIES` name).  Part
    #: of the config digest — sweeping policies re-simulates each point —
    #: but NOT of the structure hash: policies act at simulation time, the
    #: built graph is the same.
    policy: Annotated[str, Codec(_policy, str)] = "critical-path"

    # -- construction -------------------------------------------------------

    @classmethod
    def make(cls, *values: Any, **named: Any) -> JobSpec:
        """Build a spec from live ``Distribution`` / ``MachineSpec`` /
        ``FaultPlan`` objects or their plain dicts: the fields in declaration
        order, by position or by name."""
        given = {**dict(zip(_SPEC, values)), **named}
        return cls.from_dict({
            name: v if isinstance(v, Mapping) or name not in _SPEC
            else encode(_SPEC[name].type, v) for name, v in given.items()})

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> JobSpec:
        """Rebuild a spec from :meth:`to_dict` output (JSON data).

        Anything the schema does not say — of the spec, or of its
        distribution, machine, topology or fault plan — raises
        ``ValueError``: a misspelt option would otherwise run — and cache —
        the default point, a mistyped one a point its JSON does not name.
        Every layer is decoded to the live object and encoded again, so the
        dicts a spec holds are the canonical ones of what will run.
        """
        live = read("JobSpec", _SPEC, d)
        return cls(**{k: encode(_SPEC[k].type, v) for k, v in live.items()})

    # -- canonical views ----------------------------------------------------

    @cached_property
    def _canonical(self) -> str:
        return canonical_json({name: getattr(self, name) for name in _SPEC})

    def canonical(self) -> str:
        """Canonical JSON of the full spec (the config-digest input)."""
        return self._canonical

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, JobSpec)
                and self._canonical == other._canonical)

    def __hash__(self) -> int:
        return hash(self._canonical)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON shape (a fresh copy) of the point."""
        return cast("dict[str, Any]", json.loads(self._canonical))

    @cached_property
    def _plain(self) -> dict[str, Any]:  # to_dict() once, never handed out
        return self.to_dict()

    @cached_property
    def _structure_key(self) -> str:
        return canonical_json(self.structure_fields())

    def structure_fields(self) -> dict[str, Any]:
        """The subset of fields the task-graph *structure* depends on.

        Everything else (machine constants, engine, simulator options,
        fault plan, scheduler policy) changes timing but not the graph's
        tasks/edges; see ``docs/service.md`` ("Content hash").
        """
        return {
            "algorithm": self.algorithm,
            "ntiles": self.ntiles,
            "b": self.b,
            "dist": self.dist,
            "element_size": self.machine["element_size"],
        }

    # -- live objects -------------------------------------------------------

    def distribution(self) -> Union[Distribution, TwoDotFiveD]:
        return dist_from_spec(self.dist)

    def machine_spec(self) -> MachineSpec:
        return machine_from_spec(self.machine)

    def fault_plan(self) -> Optional[FaultPlan]:
        return faults_from_spec(self.faults)

    def with_(self, **changes: Any) -> JobSpec:
        """Copy with plain-field changes (dist/machine/faults take dicts)."""
        return JobSpec.from_dict({**self.to_dict(), **changes})

    # dataclasses.replace would skip the reader
    replace = with_

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JobSpec({self.algorithm} N={self.ntiles} b={self.b} "
                f"dist={self.dist['kind']} engine={self.engine})")


_HINTS = get_type_hints(JobSpec, include_extras=True)
#: The top layer, read off the dataclass: field -> (JSON type, default).
_SPEC: Table = {
    f.name: Key(getattr(_HINTS[f.name], "__metadata__", [_HINTS[f.name]])[0],
                REQUIRED if f.default is MISSING else f.default)
    for f in fields(JobSpec)}

#: Every layer of the schema by the name its errors use ("Job schema" in
#: ``docs/service.md`` documents exactly these keys).
TABLES: dict[str, Table] = {
    "JobSpec": _SPEC,
    **{f"{kind} distribution": table for kind, (_, table) in _DISTS.items()},
    "machine": _MACHINE,
    "topology": TOPOLOGY_TABLE,
    "fault plan": _FAULTS,
    **{f"fault plan {rows} row": table
       for rows, (_, table) in _FAULT_ROWS.items()},
}
