"""Hypothesis strategies shared by the generated-input tests.

Graph inputs nobody hand-picked (arbitrary owner tables, fault plans) and
sweep-service inputs (job specs built from live objects, and one corruption
of a spec's JSON per draw).  ROADMAP item 2(a) collects the strategies here.
"""

import copy
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from repro.config import bora, laptop
from repro.distributions import (
    BlockCyclic2D,
    Distribution,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from repro.runtime.faults import (
    FaultPlan,
    LinkDegradation,
    SlowdownWindow,
    WorkerCrash,
)
from repro.schedulers import POLICIES
from repro.schema import REQUIRED
from repro.service.jobs import ALGORITHMS, BROADCASTS, ENGINES, TABLES
from repro.topology import Heterogeneity, chain, clique, fat_tree, ring, star


# --------------------------------------------------------------------------
# graphs
# --------------------------------------------------------------------------

class OwnerTable(Distribution):
    """An arbitrary tile -> node map: none of the structure (cyclic,
    symmetric, balanced) the paper's distributions have."""

    def __init__(self, table, num_nodes):
        self._table = np.asarray(table, dtype=np.int64)
        self._num_nodes = num_nodes

    num_nodes = property(lambda self: self._num_nodes)
    name = property(lambda self: f"table(P={self._num_nodes})")

    def owner(self, i, j):
        return int(self._table[i, j])

    def owner_map(self, N):
        return self._table[:N, :N]


@st.composite
def owner_tables(draw, N):
    """Uniform, unbalanced (two tiles in three on node 0), one-node, and
    P > 256 (the core indexes a list where it otherwise lowers the node
    column to ``bytes``)."""
    shape = draw(st.sampled_from(["uniform", "unbalanced", "one-node", "wide"]))
    if shape == "one-node":
        P = 1
    else:
        P = draw(st.integers(257, 300) if shape == "wide"
                 else st.integers(2, 9))
    spread = 3 * P if shape == "unbalanced" else P
    cells = draw(st.lists(st.integers(0, spread - 1),
                          min_size=N * N, max_size=N * N))
    table = [v if v < P else 0 for v in cells]
    return OwnerTable(np.reshape(table, (N, N)), P)


@st.composite
def fault_plans(draw, P, crashes=False):
    """Stragglers, a degraded link and seeded loss; a crash only on request
    (a crashed run raises on both engines instead of reporting)."""
    window = draw(st.sampled_from([(0.0, float("inf")), (1e-4, 4e-4)]))
    return FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        slowdowns=tuple(
            SlowdownWindow(node, draw(st.sampled_from([1.5, 4.0])), *window)
            for node in draw(st.sets(st.integers(0, P - 1), max_size=2))),
        links=draw(st.sampled_from([
            (), (LinkDegradation(3.0, src=0),),
            (LinkDegradation(2.0, dst=P - 1, start=window[0],
                             end=window[1]),)])),
        loss_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
        crashes=((WorkerCrash(draw(st.integers(0, P - 1)),
                              draw(st.integers(1, 50))),)
                 if crashes and draw(st.booleans()) else ()),
    )


# --------------------------------------------------------------------------
# machines
# --------------------------------------------------------------------------

@st.composite
def heterogeneities(draw, P, always_speed=False):
    """Per-node speeds and / or core counts (possibly neither)."""
    speed = cores = ()
    if always_speed or draw(st.booleans()):
        speed = tuple(draw(st.lists(st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
                                    min_size=P, max_size=P)))
    if draw(st.booleans()):
        cores = tuple(draw(st.lists(st.integers(1, 4), min_size=P, max_size=P)))
    return Heterogeneity(speed=speed, cores=cores)


@st.composite
def topologies(draw, P, always_speed=False):
    """Every builder shape that takes any ``P`` (switches with a finite and
    with an infinite backplane included), with generated heterogeneity."""
    bw, lat = draw(st.sampled_from([(1e9, 1e-6), (12.5e9, 1.5e-6)]))
    hetero = draw(heterogeneities(P, always_speed))
    shape = draw(st.sampled_from(["clique", "chain", "star", "fat_tree"]
                                 + ["ring"] * (P >= 3)))
    if shape == "star":
        return star(P, bw, lat, draw(st.sampled_from([float("inf"), 5e9])),
                    hetero=hetero)
    if shape == "fat_tree":
        return fat_tree(P, draw(st.integers(1, 4)), bw, lat, hetero=hetero)
    return {"clique": clique, "chain": chain, "ring": ring}[shape](
        P, bw, lat, hetero=hetero)


@st.composite
def machines(draw, P, speeds=False):
    """``bora`` / ``laptop`` of ``P`` nodes; ``speeds`` forces a topology
    with per-node speeds (what makes bottom levels machine-dependent)."""
    base = draw(st.sampled_from([bora(P), laptop(P, cores=2)]))
    topology = (draw(topologies(P, always_speed=True)) if speeds
                else draw(st.none() | topologies(P)))
    return replace(base, topology=topology,
                   element_size=draw(st.sampled_from([8, 4])))


# --------------------------------------------------------------------------
# job specs
# --------------------------------------------------------------------------

@st.composite
def distributions(draw):
    """Every distribution kind the service can name."""
    flat = st.one_of(
        st.builds(SymmetricBlockCyclic, st.integers(2, 6)),
        st.builds(lambda h: SymmetricBlockCyclic(2 * h, variant="basic"),
                  st.integers(1, 3)),
        st.builds(BlockCyclic2D, st.integers(1, 4), st.integers(1, 4)),
        st.builds(RowCyclic1D, st.integers(1, 8)))
    dist = draw(flat)
    if draw(st.booleans()):
        dist = TwoDotFiveD(dist, draw(st.integers(1, 3)))
    return dist


@st.composite
def job_arguments(draw):
    """Keyword arguments of ``JobSpec.make`` as live objects, every field
    generated."""
    dist = draw(distributions())
    P = dist.num_nodes
    return dict(
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        ntiles=draw(st.integers(1, 40)),
        b=draw(st.sampled_from([1, 32, 500])),
        dist=dist,
        machine=draw(machines(P)),
        engine=draw(st.sampled_from(ENGINES)),
        synchronized=draw(st.booleans()),
        broadcast=draw(st.sampled_from(BROADCASTS)),
        aggregate=draw(st.booleans()),
        faults=draw(st.none() | fault_plans(P, crashes=True)),
        collect_metrics=draw(st.booleans()),
        policy=draw(st.sampled_from(sorted(POLICIES))))


def layers(spec_dict):
    """``(TABLES name, root field, the JSON object)`` of every schema layer
    present in a spec's plain-dict form."""
    out = [("JobSpec", None, spec_dict)]
    dist = spec_dict["dist"]
    while dist is not None:
        out.append((f"{dist['kind']} distribution", "dist", dist))
        dist = dist.get("base")
    out.append(("machine", "machine", spec_dict["machine"]))
    if spec_dict["machine"]["topology"] is not None:
        out.append(("topology", "machine", spec_dict["machine"]["topology"]))
    if spec_dict["faults"] is not None:
        out.append(("fault plan", "faults", spec_dict["faults"]))
        for rows in ("slowdowns", "links", "crashes"):
            out.extend((f"fault plan {rows} row", "faults", row)
                       for row in spec_dict["faults"][rows])
    return out


#: A value of every JSON type (``1`` is also a number: an integer where a
#: float is declared is *not* a corruption, and is never drawn for one).
_JSON_SAMPLES = [None, True, 3, 2.5, "x", [1], {"a": 1}]
_NULLABLE = {("JobSpec", "faults"), ("machine", "topology")}


def _wrong_values(layer, key, value):
    """JSON values the schema must refuse for ``layer[key]`` (now ``value``)."""
    if key == "kind" and layer != "topology":  # the distribution's tag
        return [5, None, ["sbc"], "no-such-kind"]
    declared = TABLES[layer][key].type
    if declared is float:
        return [v for v in _JSON_SAMPLES if type(v) not in (int, float)]
    if isinstance(declared, type):
        return [v for v in _JSON_SAMPLES if type(v) is not declared]
    # a nested shape: anything of another JSON type than the present value
    # (null only where the schema allows none), an unknown choice, a
    # non-positive size, an array with an element of no declared type
    wrong = [v for v in _JSON_SAMPLES
             if type(v) is not type(value)
             and not (v is None and (layer, key) in _NULLABLE)]
    extra = {str: ["no-such-choice"], int: [0, -3], list: [["x"]]}
    return wrong + extra.get(type(value), [])


@st.composite
def corruptions(draw, spec_dict):
    """``(corrupted copy, layer, root field or None, what was done)``: one
    unknown key, one missing required key, or one value of another JSON
    type, at one generated layer of ``spec_dict`` (``to_dict`` output)."""
    bad = copy.deepcopy(spec_dict)
    name, root, obj = draw(st.sampled_from(layers(bad)))
    table = TABLES[name]
    how = draw(st.sampled_from(["unknown", "missing", "mistyped"]))
    required = [k for k, key in table.items() if key.default is REQUIRED]
    if how == "missing" and not required:
        how = "unknown"
    if how == "unknown":
        key = draw(st.sampled_from(["zzz", "Kind", "seeed", "nodes "]))
        obj[key] = draw(st.sampled_from(_JSON_SAMPLES))
    elif how == "missing":
        key = draw(st.sampled_from(required))
        del obj[key]
    else:
        key = draw(st.sampled_from(sorted(obj)))
        obj[key] = draw(st.sampled_from(_wrong_values(name, key, obj[key])))
    return bad, name, root, f"{how} {key!r} in {name}"
