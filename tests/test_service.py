"""Sweep-service contract tests: cache keys, store durability, dedup.

The load-bearing guarantees of ``repro.service`` (see ``docs/service.md``):

* one configuration simulates exactly **once** — re-submits are cache
  hits, asserted through the server's ``service.simulations`` obs
  counter, never inferred from timing;
* *every* :class:`JobSpec` field participates in the content hash —
  changing the fault seed or a network constant is a different point;
* the store survives a process restart and detects (then recomputes,
  never serves) corrupt entries;
* a memoized :class:`SimReport` is bit-identical to a fresh run on both
  engines;
* concurrent submits of one point join a single in-flight simulation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import bora
from repro.distributions import (
    BlockCyclic2D,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from repro.graph import build_cholesky_graph, compile_cholesky
from repro.runtime import cholesky_bounds
from repro.runtime.faults import (
    FaultPlan,
    LinkDegradation,
    SlowdownWindow,
    WorkerCrash,
)
from repro.runtime.simulator import simulate, simulate_compiled
from repro.service import (
    SCHEMA_VERSION,
    JobSpec,
    ResultStore,
    SweepClient,
    SweepServer,
    config_digest,
    point_hash,
    report_to_dict,
    run_point,
    structure_hash,
    structure_key,
)
from repro.schedulers import POLICIES
from repro.service.__main__ import main as service_main
from repro.service.jobs import (
    ALGORITHMS,
    BROADCASTS,
    ENGINES,
    TABLES,
    canonical_json,
    dist_from_spec,
    dist_to_spec,
    faults_from_spec,
    faults_to_spec,
    machine_from_spec,
    machine_to_spec,
)
from repro.topology import Heterogeneity, star, topology_from_spec

from .strategies import corruptions, job_arguments, layers

NT, B = 6, 128
DIST = SymmetricBlockCyclic(2)  # 2 nodes: the smallest extended layout
MACHINE = bora(nodes=DIST.num_nodes)


def spec(**overrides) -> JobSpec:
    base = dict(algorithm="cholesky", ntiles=NT, b=B, dist=DIST,
                machine=MACHINE, engine="compiled")
    base.update(overrides)
    return JobSpec.make(**base)


# --------------------------------------------------------------------------
# memoization: one simulation per configuration
# --------------------------------------------------------------------------

def test_same_config_simulates_exactly_once(tmp_path):
    with SweepClient(store=tmp_path / "store") as client:
        first = client.submit(spec()).raise_for_status()
        assert not first.cached
        assert client.simulations_run() == 1
        second = client.submit(spec()).raise_for_status()
        assert second.cached
        assert client.simulations_run() == 1, \
            "identical configuration must be served from the cache"
        assert second.hash == first.hash
        assert report_to_dict(second.report) == report_to_dict(first.report)


def test_client_removes_only_the_store_it_made(tmp_path, monkeypatch):
    """A client built without a store makes a temp one and takes it away
    again; a store the caller or ``$REPRO_SWEEP_STORE`` named survives."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.delenv("REPRO_SWEEP_STORE", raising=False)
    with SweepClient() as client:
        client.submit(spec()).raise_for_status()
        (made,) = tmp.iterdir()
        assert (made / "results.jsonl").exists()
    assert list(tmp.iterdir()) == []

    for store in (tmp_path / "given", ResultStore(tmp_path / "instance")):
        with SweepClient(store=store) as client:
            client.submit(spec()).raise_for_status()
    monkeypatch.setenv("REPRO_SWEEP_STORE", str(tmp_path / "env"))
    with SweepClient() as client:
        client.submit(spec()).raise_for_status()
    for name in ("given", "instance", "env"):
        assert (tmp_path / name / "results.jsonl").exists(), name
    assert list(tmp.iterdir()) == []


def test_store_survives_restart(tmp_path):
    store = tmp_path / "store"
    with SweepClient(store=store) as client:
        cold = client.submit(spec()).raise_for_status()
        assert client.simulations_run() == 1
    # A brand-new client (fresh process, in spirit) on the same directory.
    with SweepClient(store=store) as client:
        warm = client.submit(spec()).raise_for_status()
        assert warm.cached
        assert client.simulations_run() == 0, \
            "restart must not lose memoized results"
        assert warm.hash == cold.hash
        assert report_to_dict(warm.report) == report_to_dict(cold.report)


def test_corrupt_entry_is_detected_and_recomputed(tmp_path):
    store_dir = tmp_path / "store"
    with SweepClient(store=store_dir) as client:
        original = client.submit(spec()).raise_for_status()

    # Bit-rot one byte inside the record's payload: the envelope checksum
    # must catch it at load time.
    path = store_dir / ResultStore.RESULTS
    line = path.read_text().rstrip("\n")
    assert '"status":"ok"' in line
    path.write_text(line.replace('"status":"ok"', '"status":"OK"') + "\n")

    reopened = ResultStore(store_dir)
    assert reopened.corrupt_entries == 1
    assert reopened.get(original.hash) is None, \
        "a corrupt record must never be served"

    with SweepClient(store=ResultStore(store_dir)) as client:
        redone = client.submit(spec()).raise_for_status()
        assert not redone.cached
        assert client.simulations_run() == 1
        assert report_to_dict(redone.report) == report_to_dict(original.report)


def test_truncated_store_line_is_skipped(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put({"hash": "abc", "status": "ok"})
    path = store.root / ResultStore.RESULTS
    path.write_text(path.read_text()[:-20])  # torn final write
    reopened = ResultStore(tmp_path / "store")
    assert reopened.corrupt_entries == 1
    assert reopened.get("abc") is None


@pytest.mark.parametrize("where", ["key", "value", "sha", "newline"])
def test_a_flipped_bit_is_one_corrupt_line(tmp_path, where):
    """A byte with its high bit set is not UTF-8; the store must open all
    the same, count the line, and serve the others."""
    store = ResultStore(tmp_path / "store")
    for k in "abc":
        store.put({"hash": k, "status": "ok"})
    path = store.root / ResultStore.RESULTS
    raw = bytearray(path.read_bytes())
    second = raw.index(b"\n") + 1  # where b's line starts
    at = {"key": raw.index(b'"status"', second) + 2,
          "value": raw.index(b'"ok"', second) + 1,
          "sha": raw.index(b'"sha":"', second) + 10,
          "newline": raw.index(b"\n", second)}[where]
    raw[at] ^= 0x80
    path.write_bytes(bytes(raw))

    reopened = ResultStore(tmp_path / "store")
    assert reopened.corrupt_entries == 1
    # Without its newline b's line runs into c's: both are one bad line.
    lost = "bc" if where == "newline" else "b"
    assert [k for k in "abc" if reopened.get(k) is None] == list(lost)


@pytest.mark.parametrize("log", [ResultStore.RESULTS, ResultStore.STRUCTURES])
def test_a_line_nested_past_the_parsers_depth_is_one_corrupt_line(tmp_path, log):
    """``json.loads`` raises ``RecursionError`` on such a line, not
    ``ValueError``; the store must open all the same and serve the rest."""
    store = ResultStore(tmp_path / "store")
    for k in "ab":
        store.put({"hash": k, "status": "ok"})
        store.put_structure(k, f"structure-{k}")
        if k == "a":
            with open(store.root / log, "ab") as fh:
                fh.write(b"[" * 100_000 + b"\n")

    reopened = ResultStore(tmp_path / "store")
    assert reopened.corrupt_entries == 1
    assert [reopened.get(k)["status"] for k in "ab"] == ["ok", "ok"]
    assert [reopened.get_structure(k) for k in "ab"] == [
        "structure-a", "structure-b"]


@pytest.mark.parametrize("tear", ["json", "sha", "newline"])
@pytest.mark.parametrize("log", [ResultStore.RESULTS, ResultStore.STRUCTURES])
def test_append_after_torn_tail_starts_a_fresh_line(tmp_path, log, tear):
    """A crash leaves the log ending mid-line; a record appended to that
    line would fail its checksum with it, so the append starts a new one."""
    def put(store, k):
        if log == ResultStore.RESULTS:
            store.put({"hash": k, "status": "ok"})
        else:
            store.put_structure(k, "s-" + k)

    def has(store, k):
        if log == ResultStore.RESULTS:
            return store.get(k) is not None
        return store.get_structure(k) == "s-" + k

    store = ResultStore(tmp_path / "store")
    put(store, "a")
    put(store, "b")
    path = store.root / log
    text = path.read_text()
    last = text.index("\n") + 1  # where b's line starts
    cut = {"json": last + 10,
           "sha": text.index('"sha":"', last) + 20,
           "newline": len(text) - 1}[tear]
    path.write_text(text[:cut])

    put(ResultStore(tmp_path / "store"), "c")
    reopened = ResultStore(tmp_path / "store")
    assert has(reopened, "a") and has(reopened, "c")
    # Only the torn line is lost — and not even that when the tear took
    # just its newline.
    assert has(reopened, "b") == (tear == "newline")
    assert reopened.corrupt_entries == (0 if tear == "newline" else 1)


def test_store_last_wins_and_compact(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put({"hash": "h", "status": "failed"})
    store.put({"hash": "h", "status": "ok"})
    assert store.get("h")["status"] == "ok"
    store.compact()
    reopened = ResultStore(tmp_path / "store")
    assert len(reopened) == 1 and reopened.get("h")["status"] == "ok"
    assert reopened.corrupt_entries == 0


# --------------------------------------------------------------------------
# cache keys: every field change is a distinct point
# --------------------------------------------------------------------------

def _changed(layer, key, value):
    """Another valid value for ``layer[key]``."""
    special = {
        ("sbc distribution", "r"): lambda r: r + 2,  # basic SBC: r stays even
        ("topology", "links"): lambda ls: [[*ls[0][:2], 2e9, 1e-6], *ls[1:]],
        ("topology", "switch_bandwidth"): lambda bs: [4e9] * len(bs),
    }
    if (layer, key) in special:
        return special[layer, key](value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 0.5 if 0 < value < math.inf else 1.0
    if isinstance(value, list):  # speed, cores; rows of a fault plan
        return [value[0] + 1, *value[1:]] if key in ("speed", "cores") else value[1:]
    choices = {"algorithm": ALGORITHMS, "engine": ENGINES,
               "broadcast": BROADCASTS, "policy": sorted(POLICIES)}
    return next(c for c in choices.get(key, ["extended", "other"]) if c != value)


def test_every_field_change_changes_the_hash():
    """Walks the schema tables, so a key added later cannot be missed: every
    key of every layer, changed alone, is another point."""
    plan = FaultPlan(seed=1, loss_rate=0.05,
                     slowdowns=(SlowdownWindow(0, 2.0),) * 2,
                     links=(LinkDegradation(2.0, src=0),) * 2,
                     crashes=(WorkerCrash(1, after_tasks=10**6),))
    sbc = TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 2)
    hetero = Heterogeneity(speed=(1.0, 0.5, 1.0, 0.5, 1.0, 0.5), cores=(2,) * 6)
    bases = [
        JobSpec.make("cholesky", NT, B, sbc, bora(sbc.num_nodes), faults=plan),
        JobSpec.make("cholesky", NT, B, BlockCyclic2D(2, 3), dataclasses.replace(
            bora(6), topology=star(6, 1e9, 1e-6, 5e9, hetero=hetero))),
        JobSpec.make("cholesky", NT, B, RowCyclic1D(3), bora(3)),
    ]
    # Sizes that the arrays of their layer must agree with, so never
    # changed alone; the arrays themselves are.
    tied = {("machine", "nodes"), ("topology", "num_nodes"),
            ("topology", "num_switches")}
    structural = {("JobSpec", "algorithm"), ("JobSpec", "ntiles"),
                  ("JobSpec", "b"), ("machine", "element_size")}
    seen = set()
    for base in bases:
        for i, (layer, root, _) in enumerate(layers(base.to_dict())):
            for key in TABLES[layer]:
                if (layer, key) in tied and base is not bases[2]:
                    continue
                doc = base.to_dict()
                obj = layers(doc)[i][2]
                if isinstance(obj[key], dict) or obj[key] is None:
                    continue  # a nested layer (visited itself) or none
                obj[key] = _changed(layer, key, obj[key])
                variant = JobSpec.from_dict(doc)
                seen.add((layer, key))
                assert variant != base, (layer, key)
                assert config_digest(variant) != config_digest(base), (layer, key)
                # Only what shapes the task graph rotates the structure key.
                assert (structure_key(variant) != structure_key(base)) == (
                    root == "dist" or (layer, key) in structural), (layer, key)
    nested = {("JobSpec", "dist"), ("JobSpec", "machine"), ("JobSpec", "faults"),
              ("machine", "topology"), ("2.5d distribution", "base")}
    assert seen | nested | tied - {("machine", "nodes")} == {
        (layer, key) for layer, table in TABLES.items() for key in table}
    assert spec(faults=None) != spec(faults={})  # no plan is not an empty plan


def test_spec_round_trips_through_json():
    s = spec(faults=FaultPlan(seed=7, loss_rate=0.01,
                              crashes=(WorkerCrash(node=1, after_tasks=3),)))
    again = JobSpec.from_dict(json.loads(json.dumps(s.to_dict())))
    assert again == s
    assert config_digest(again) == config_digest(s)


def test_structure_hash_ignores_kind_registration_order():
    """Regression: ``compile_graph`` assigns kind codes in first-seen
    order, so the raw code table depends on what was lowered earlier in
    the process.  The structure hash must be invariant under any
    permutation of the table (and must ignore unused entries)."""
    import numpy as np

    cg = compile_cholesky(NT, B, DIST)
    names = list(cg.kind_names)
    # Reverse the table (plus a never-used entry) and remap the codes.
    permuted_names = list(reversed(names)) + ["never-used-kind"]
    remap = np.array([permuted_names.index(n) for n in names],
                     dtype=cg.kind_codes.dtype)
    permuted = dataclasses.replace(
        cg,
        kind_names=permuted_names,
        kind_codes=remap[cg.kind_codes],
    )
    assert structure_hash(permuted) == structure_hash(cg)
    # Sanity: a *semantic* kind change still rotates the hash.
    flipped = dataclasses.replace(
        cg, kind_codes=cg.kind_codes[::-1].copy())
    assert structure_hash(flipped) != structure_hash(cg)


def test_unknown_spec_keys_are_rejected(tmp_path):
    """A key that is no field raises: dropped silently, a misspelt option
    runs the *default* point and caches it under the default's hash."""
    from repro.service.http import HttpSweepService

    base = spec()
    typo = dict(base.to_dict(), synchronised=True, brodcast="tree")
    with pytest.raises(ValueError, match=r"\['brodcast', 'synchronised'\]"):
        JobSpec.from_dict(typo)
    # The schema <= 4 serve-loop selector is no field any more either.
    with pytest.raises(ValueError, match="kernel"):
        JobSpec.from_dict(dict(base.to_dict(), kernel="interp"))
    with pytest.raises(ValueError, match="polcy"):
        base.with_(polcy="work-stealing")
    assert base.with_(policy="work-stealing").policy == "work-stealing"

    server = SweepServer(ResultStore(tmp_path / "store"))
    svc = HttpSweepService(server, "127.0.0.1", 0)

    async def post(path):
        body = json.dumps(typo).encode()
        reader = asyncio.StreamReader()
        reader.feed_data(f"POST {path} HTTP/1.1\r\nContent-Length: "
                         f"{len(body)}\r\n\r\n".encode() + body)
        reader.feed_eof()
        return await svc._dispatch(reader)

    async def drive():
        try:
            return [await post(path) for path in ("/submit", "/status")]
        finally:
            await server.close()

    for out in asyncio.run(drive()):
        assert out.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"brodcast" in out and b"synchronised" in out
    assert len(server.store) == 0


def test_unknown_nested_spec_keys_are_rejected(tmp_path):
    """The same below the top level: ``varient`` used to simulate — and
    cache — SBC-extended, ``bandwith`` the default network."""
    from repro.config import laptop
    from repro.distributions import TwoDotFiveD
    from repro.runtime.faults import LinkDegradation
    from repro.service.hashing import point_hash
    from repro.service.http import HttpSweepService
    from repro.service.jobs import (
        dist_from_spec, faults_from_spec, machine_from_spec)
    from repro.topology import grid, topology_from_spec, topology_to_spec

    plan = FaultPlan(seed=1, slowdowns=(SlowdownWindow(0, 2.0),),
                     links=(LinkDegradation(2.0, src=0),),
                     crashes=(WorkerCrash(1, after_tasks=3),))
    machine = dataclasses.replace(
        laptop(nodes=6), topology=grid(2, 3, 1e9, 1e-6))
    base = JobSpec.make("cholesky", 6, 32, TwoDotFiveD(BlockCyclic2D(1, 3), 2),
                        machine, faults=plan)
    good = base.to_dict()
    again = JobSpec.from_dict(good)  # every key the system writes is known
    assert (again.canonical(), point_hash(config_digest(again), "s")) == (
        base.canonical(), point_hash(config_digest(base), "s"))
    assert faults_from_spec(good["faults"]) == plan

    def typo(path, key):
        """``good`` with ``key`` added to the dict at ``path``."""
        bad = json.loads(json.dumps(good))
        at = bad
        for step in path:
            at = at[step]
        at[key] = 1
        return bad

    cases = [(("dist",), "slices"), (("dist", "base"), "P"),
             (("machine",), "bandwith"), (("machine", "topology"), "nodes"),
             (("faults",), "loss"), (("faults", "slowdowns", 0), "until"),
             (("faults", "links", 0), "source"),
             (("faults", "crashes", 0), "after")]
    for path, key in cases:
        with pytest.raises(ValueError, match=key):
            JobSpec.from_dict(typo(path, key))
    sbc = {"kind": "sbc", "r": 4, "varient": "basic"}
    for rebuild, bad in ((dist_from_spec, sbc),
                         (machine_from_spec, typo(("machine",), "bandwith")["machine"]),
                         (faults_from_spec, typo(("faults",), "loss")["faults"]),
                         (topology_from_spec,
                          dict(topology_to_spec(machine.topology), nodes=6))):
        with pytest.raises(ValueError, match="unknown .* field"):
            rebuild(bad)

    server = SweepServer(ResultStore(tmp_path / "store"))
    svc = HttpSweepService(server, "127.0.0.1", 0)

    async def post():
        body = json.dumps(dict(good, dist=sbc)).encode()
        reader = asyncio.StreamReader()
        reader.feed_data(f"POST /submit HTTP/1.1\r\nContent-Length: "
                         f"{len(body)}\r\n\r\n".encode() + body)
        reader.feed_eof()
        try:
            return await svc._dispatch(reader)
        finally:
            await server.close()

    out = asyncio.run(post())
    assert out.startswith(b"HTTP/1.1 400 Bad Request") and b"varient" in out
    assert len(server.store) == 0


@settings(max_examples=60, deadline=None)
@given(args=job_arguments())
def test_spec_laws_on_generated_specs(args):
    """One path: live objects and their dicts make the same spec; the plain
    dict round-trips; ``==`` and ``hash`` are those of the canonical JSON."""
    s = JobSpec.make(**args)
    as_dicts = dict(args, dist=dist_to_spec(args["dist"]),
                    machine=machine_to_spec(args["machine"]),
                    faults=faults_to_spec(args["faults"]))
    assert JobSpec.make(**as_dicts) == s
    assert JobSpec.from_dict(as_dicts) == s
    again = JobSpec.from_dict(json.loads(json.dumps(s.to_dict())))
    assert again == s and hash(again) == hash(s)
    assert again.canonical() == s.canonical() == canonical_json(s.to_dict())
    assert (s.distribution().name, s.machine_spec(), s.fault_plan()) == (
        args["dist"].name, args["machine"], args["faults"])
    other = s.with_(ntiles=s.ntiles + 1)
    assert other != s and len({s, again, other}) == 2
    # What the digest names is what runs: a float where the schema says
    # integer is refused, not truncated under the old key.
    with pytest.raises(ValueError, match="ntiles"):
        s.with_(ntiles=s.ntiles + 0.9)
    # The keys a spec memoizes are the ones recomputed from scratch, and
    # no dict ``to_dict`` hands out reaches them or what a lookup serves.
    for t in (s, again):
        assert structure_key(t) == canonical_json(t.structure_fields())
        assert config_digest(t) == hashlib.sha256(
            b"config\x00%d\x00%s\x00" % (SCHEMA_VERSION,
                                         canonical_json(t.to_dict()).encode())
        ).hexdigest()
    with tempfile.TemporaryDirectory() as tmp, SweepClient(store=tmp) as client:
        store = client.server.store
        store.put_structure(structure_key(s), "structure")
        point = point_hash("structure", config_digest(s))
        store.put({"hash": point, "spec": s.to_dict(), "status": "ok",
                   "report": None, "timings": {}})
        keys = (config_digest(s), structure_key(s))
        for doc in (s.to_dict(), s.to_dict()["machine"]):
            doc.clear()
            assert (config_digest(s), structure_key(s)) == keys
            assert client.server.lookup(s).hash == point
            assert client.server.lookup(again).hash == point


@settings(max_examples=200, deadline=None)
@given(data=st.data(), args=job_arguments())
def test_one_corruption_at_any_level_is_a_value_error(data, args):
    """An unknown key, a missing required key, a value of another JSON
    type: ``ValueError`` from ``from_dict`` and from the layer's own
    ``*_from_spec`` — never another exception, never a spec."""
    good = JobSpec.make(**args).to_dict()
    bad, layer, root, what = data.draw(corruptions(good))
    with pytest.raises(ValueError):
        JobSpec.from_dict(bad)
    rebuild = {"dist": dist_from_spec, "machine": machine_from_spec,
               "faults": faults_from_spec}
    if root is not None:
        with pytest.raises(ValueError):
            rebuild[root](bad[root])
    if layer == "topology":
        with pytest.raises(ValueError):
            topology_from_spec(bad["machine"]["topology"])


def _machine(**changes):
    return lambda d: dict(d, machine=dict(d["machine"], **changes))


#: The malformed bodies of ISSUE 23: each ran, cached a point its JSON does
#: not name, or answered 500 at the parent.
MALFORMED = {
    "string for a bool": lambda d: dict(d, aggregate="false"),
    "int for a bool": lambda d: dict(d, collect_metrics=0),
    "float for an int": lambda d: dict(d, ntiles=6.9),
    "string for an int": lambda d: dict(d, b="64"),
    "dist is a number": lambda d: dict(d, dist=5),
    "float r": lambda d: dict(d, dist={"kind": "sbc", "r": 3.9}),
    "float cores": lambda d: dict(d, machine=dict(d["machine"], cores=2.7)),
    "fault row is a number": lambda d: dict(d, faults={"slowdowns": [5]}),
    "list for an object": lambda d: dict(d, machine=[d["machine"]]),
    "spec is a list": lambda d: [d],
    "missing required key": lambda d: {k: v for k, v in d.items() if k != "b"},
    # Machine constants out of range: each simulated (a negative or an
    # infinite makespan, negative bytes) and cached the nonsense.
    "negative bandwidth": _machine(bandwidth=-1.0),
    "infinite bandwidth": _machine(bandwidth=math.inf),
    "negative peak_flops": _machine(peak_flops=-1.0),
    "negative overhead": _machine(overhead=-1.0),
    "zero efficiency": _machine(efficiency=0.0),
    "negative b_half": _machine(b_half=-1.0),
    "negative element_size": _machine(element_size=-8),
    "NaN latency": _machine(latency=math.nan),
}


#: Malformed bodies ``json.dumps`` cannot write.  A body nested past the
#: parser's depth raised ``RecursionError``, which answered 500.
MALFORMED_BYTES = {
    "nested past the parser's depth": b"[" * 100_000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(MALFORMED_BYTES))
def test_a_malformed_spec_is_a_400_and_leaves_no_trace(tmp_path, case):
    from repro.service.http import HttpSweepService

    if case in MALFORMED:
        doc = MALFORMED[case](spec().to_dict())
        with pytest.raises(ValueError):
            JobSpec.from_dict(doc)
        body = json.dumps(doc).encode()
    else:
        body = MALFORMED_BYTES[case]
    server = SweepServer(ResultStore(tmp_path / "store"))
    svc = HttpSweepService(server, "127.0.0.1", 0)

    async def request(method, path, payload=b""):
        reader = asyncio.StreamReader()
        reader.feed_data(f"{method} {path} HTTP/1.1\r\nContent-Length: "
                         f"{len(payload)}\r\n\r\n".encode() + payload)
        reader.feed_eof()
        return await svc._dispatch(reader)

    async def drive():
        try:
            good = json.dumps(spec().to_dict()).encode()
            assert (await request("POST", "/submit", good)).startswith(
                b"HTTP/1.1 200 OK")
            log = (tmp_path / "store" / ResultStore.RESULTS).read_bytes()
            for path in ("/submit", "/status"):
                out = await request("POST", path, body)
                assert out.startswith(b"HTTP/1.1 400 Bad Request"), out
                assert b"bad job spec" in out
            assert (await request("GET", "/healthz")).startswith(
                b"HTTP/1.1 200 OK")
            assert (tmp_path / "store" / ResultStore.RESULTS).read_bytes() == log
        finally:
            await server.close()

    asyncio.run(drive())
    assert server.simulations() == 1 and len(server.store) == 1


def test_an_empty_fault_plan_is_the_default_plan_not_no_plan(tmp_path):
    """``"faults": {}`` used to pass ``from_dict`` and die in the worker with
    ``AttributeError``; it is ``FaultPlan()``, which is another point than
    ``None`` (they hash differently, as they always did)."""
    empty = JobSpec.from_dict(dict(spec().to_dict(), faults={}))
    assert empty.to_dict()["faults"] == faults_to_spec(FaultPlan())
    assert empty == spec(faults=FaultPlan()) and empty != spec()
    with SweepClient(store=tmp_path / "store") as client:
        assert client.submit(empty).raise_for_status().report.makespan == \
            client.submit(spec()).report.makespan
        assert client.simulations_run() == 2


# --------------------------------------------------------------------------
# determinism: memoized reports are bit-identical to fresh runs
# --------------------------------------------------------------------------

def test_memoized_report_bit_identical_compiled(tmp_path):
    with SweepClient(store=tmp_path / "store") as client:
        client.submit(spec())
        cached = client.submit(spec())
        assert cached.cached
    cg = compile_cholesky(NT, B, DIST)
    fresh = simulate_compiled(cg, MACHINE)
    assert report_to_dict(cached.report) == report_to_dict(fresh)


def test_memoized_report_bit_identical_object(tmp_path):
    with SweepClient(store=tmp_path / "store") as client:
        client.submit(spec(engine="object"))
        cached = client.submit(spec(engine="object"))
        assert cached.cached
    fresh = simulate(build_cholesky_graph(NT, B, DIST), MACHINE)
    assert report_to_dict(cached.report) == report_to_dict(fresh)


def test_failed_crash_plan_is_memoized(tmp_path):
    crashing = spec(faults=FaultPlan(seed=3,
                                     crashes=(WorkerCrash(node=0,
                                                          after_tasks=2),)))
    with SweepClient(store=tmp_path / "store") as client:
        first = client.submit(crashing)
        assert first.status == "failed" and first.report is None
        assert first.error
        with pytest.raises(RuntimeError, match="sweep point failed"):
            first.raise_for_status()
        # Seeded crashes are deterministic: the failure is cached, not
        # retried forever.
        second = client.submit(crashing)
        assert second.cached and second.status == "failed"
        assert client.simulations_run() == 1
        assert second.error == first.error


def test_run_point_is_a_pure_function_of_the_spec():
    a = run_point(spec().to_dict())
    b = run_point(spec().to_dict())
    assert a["hash"] == b["hash"]
    assert a["structure"] == b["structure"]
    assert a["report"] == b["report"]


def test_a_simulating_interpreter_never_loads_scipy():
    """Servers, pool workers and sweep clients simulate and never factor a
    tile: importing the service and running a point on either engine loads
    no ``scipy`` module (0.2 s and ~25 MiB per interpreter), and the
    numeric kernels still find it the moment one is called."""
    script = f"""
import sys
import numpy as np
import repro, repro.service, repro.runtime.simulator
for engine in ("compiled", "object"):
    repro.service.run_point(dict({spec().to_dict()!r}, engine=engine))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
a = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 6.0]])
low = repro.kernels.potrf(a)
assert np.allclose(low @ low.T, a) and "scipy.linalg" in sys.modules
"""
    path = [str(Path(repro.__file__).resolve().parents[1]),
            *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("engine", ["compiled", "object"])
def test_element_size_reaches_the_builders(engine):
    """``element_size`` is part of the structure key and of the digest, so
    it must size the tiles: a 4-byte point moves half the bytes of the
    8-byte one (it used to be stored as a second copy of it), and its
    makespan still respects the bounds computed from the same spec."""
    dist = BlockCyclic2D(2, 2)
    double = bora(4)
    single = dataclasses.replace(double, element_size=4)
    rec8, rec4 = (
        run_point(JobSpec.make("cholesky", 8, 64, dist, m, engine=engine).to_dict())
        for m in (double, single))
    assert rec8["structure"] != rec4["structure"]
    assert rec8["report"]["comm_bytes"] == 2 * rec4["report"]["comm_bytes"] > 0
    assert rec8["report"]["comm_messages"] == rec4["report"]["comm_messages"]
    assert rec4["report"]["makespan"] < rec8["report"]["makespan"]
    floor = cholesky_bounds(dist, 8, 64, single).makespan_lower_bound
    assert rec4["report"]["makespan"] >= floor * (1 - 1e-9)


def test_worker_reuses_graph_across_structure_matched_points(tmp_path):
    """Incremental re-simulation: two points sharing a structure key must
    build the compiled graph once — and the reused run must stay
    bit-identical to a from-scratch simulation."""
    # A tile count no other test uses, so this process's worker cache
    # cannot already hold the structure.
    nt = 9
    fast = bora(nodes=DIST.num_nodes)
    slow = dataclasses.replace(fast, network=dataclasses.replace(
        fast.network, bandwidth=fast.network.bandwidth / 2))
    with SweepClient(store=tmp_path / "store") as client:
        cold = client.submit(spec(ntiles=nt, machine=fast)).raise_for_status()
        warm = client.submit(spec(ntiles=nt, machine=slow)).raise_for_status()
    assert not cold.graph_reused
    assert warm.graph_reused, \
        "same structure key must reuse the worker's cached graph"
    assert not warm.cached and warm.hash != cold.hash
    fresh = simulate_compiled(compile_cholesky(nt, B, DIST), slow)
    assert report_to_dict(warm.report) == report_to_dict(fresh)


def test_result_records_worker_peak_rss(tmp_path):
    with SweepClient(store=tmp_path / "store") as client:
        res = client.submit(spec()).raise_for_status()
    assert res.peak_rss_mb is not None and res.peak_rss_mb > 0.0
    record = run_point(spec().to_dict())
    assert record["peak_rss_mb"] > 0.0


# --------------------------------------------------------------------------
# server pipeline: dedup, events, status
# --------------------------------------------------------------------------

def test_concurrent_submits_join_one_simulation(tmp_path):
    async def scenario():
        server = SweepServer(ResultStore(tmp_path / "store"))
        try:
            results = await server.sweep([spec()] * 4)
        finally:
            await server.close()
        return server, results

    server, results = asyncio.new_event_loop().run_until_complete(scenario())
    assert server.simulations() == 1, \
        "identical in-flight submits must share one simulation"
    assert sum(not r.cached for r in results) == 1
    assert len({r.hash for r in results}) == 1
    assert all(report_to_dict(r.report) == report_to_dict(results[0].report)
               for r in results)


def test_event_stream_and_status(tmp_path):
    async def scenario():
        server = SweepServer(ResultStore(tmp_path / "store"))
        queue = server.subscribe()
        assert server.status(spec()) == "unknown"
        await server.submit(spec())
        assert server.status(spec()) == "cached"
        await server.submit(spec())
        await server.close()
        events = []
        while not queue.empty():
            events.append(queue.get_nowait())
        return events

    events = asyncio.new_event_loop().run_until_complete(scenario())
    assert [e.op for e in events] == [
        "submitted", "started", "completed",  # cold
        "submitted", "cache-hit",             # warm
    ]
    assert len({e.key for e in events}) == 1  # all about one config digest

    # In-process, a hit never enters the event loop, and is one whole
    # submit: one job, one hit, its two events.
    def drain(queue):
        ops = []
        while not queue.empty():
            ops.append(queue.get_nowait().op)
        return ops

    def counts(server):
        return tuple(int(c.total()) if (c := server.metrics.get(name)) else 0
                     for name in ("service.jobs", "service.cache.hits",
                                  "service.simulations"))

    with SweepClient(store=tmp_path / "client") as client:
        server, loop = client.server, client._loop
        queue = server.subscribe()
        client.submit(spec()).raise_for_status()
        assert drain(queue) == ["submitted", "started", "completed"]
        assert counts(server) == (1, 0, 1)

        def refuse(coro):
            coro.close()
            raise AssertionError("a cache hit ran the event loop")

        loop.run_until_complete = refuse  # shadows the method until del
        try:
            hit = client.submit(spec())
            swept = client.sweep([spec(), spec()])
        finally:
            del loop.run_until_complete
        assert all(r.cached and r.status == "ok" for r in [hit, *swept])
        assert drain(queue) == ["submitted", "cache-hit"] * 3
        assert counts(server) == (4, 3, 1)

        # A miss is still counted once and streams its three events.
        client.submit(spec(ntiles=NT + 1)).raise_for_status()
        assert drain(queue) == ["submitted", "started", "completed"]
        assert counts(server) == (5, 3, 2)


@pytest.mark.parametrize("door", ["client.submit", "client.sweep",
                                  "server.submit", "status"])
def test_a_hand_edited_stored_spec_is_not_served(tmp_path, door):
    """A record filed under the point's hash, checksum intact, whose
    ``"spec"`` names another point: no door serves it, and a submit
    simulates the point again."""
    root = tmp_path / "store"
    with SweepClient(store=root) as client:
        point = client.submit(spec()).raise_for_status().hash
    store = ResultStore(root)
    record = dict(store.get(point), spec=spec(policy="work-stealing").to_dict())
    store.put(record)

    with SweepClient(store=root) as client:
        server = client.server
        if door == "status":
            assert client.status(spec()) == "unknown"
            return
        res = {"client.submit": lambda: client.submit(spec()),
               "client.sweep": lambda: client.sweep([spec()])[0],
               "server.submit": lambda: client._loop.run_until_complete(
                   server.submit(spec()))}[door]()
        assert not res.cached and res.hash == point
        assert client.simulations_run() == 1
        assert server.metrics.get("service.cache.hits") is None
    assert ResultStore(root).get(point)["spec"] == spec().to_dict()


def test_bounded_subscriber_drops_oldest(tmp_path):
    """A stalled subscriber with ``maxsize`` set must see the *newest*
    events (a gap, not unbounded memory), and the shed events must be
    counted."""

    async def scenario():
        server = SweepServer(ResultStore(tmp_path / "store"))
        bounded = server.subscribe(maxsize=2)
        firehose = server.subscribe()  # unbounded control
        await server.submit(spec())                 # 3 events
        await server.submit(spec())                 # 2 more
        await server.close()
        return server, bounded, firehose

    server, bounded, firehose = \
        asyncio.new_event_loop().run_until_complete(scenario())
    kept = []
    while not bounded.empty():
        kept.append(bounded.get_nowait())
    everything = []
    while not firehose.empty():
        everything.append(firehose.get_nowait())
    assert [e.op for e in everything] == [
        "submitted", "started", "completed", "submitted", "cache-hit"]
    # The bounded queue holds exactly the last two events.
    assert [e.op for e in kept] == ["submitted", "cache-hit"]
    dropped = server.metrics.get("service.events.dropped")
    assert dropped is not None and int(dropped.total()) == 3


# --------------------------------------------------------------------------
# the hit path: what a hit skips changes nothing a caller can observe
# --------------------------------------------------------------------------

def _drain(queue):
    events = []
    while not queue.empty():
        events.append(queue.get_nowait())
    return events


def test_hits_count_the_same_with_and_without_a_subscriber(tmp_path):
    """Events are built only for a listener, but every hit is counted:
    N hits unobserved, then N observed, leave the metrics of 2N hits."""
    n = 5
    with SweepClient(store=tmp_path / "store") as client:
        server = client.server
        client.submit(spec()).raise_for_status()
        for _ in range(n):
            client.submit(spec())
        queue = server.subscribe()
        for _ in range(n):
            client.submit(spec())
        assert [e.op for e in _drain(queue)] == ["submitted", "cache-hit"] * n
        metrics = server.metrics.as_dict()
    assert {name: doc["values"] for name, doc in metrics.items()} == {
        "service.jobs": {"": 1.0 + 2 * n},
        "service.cache.misses": {"": 1.0},
        "service.simulations": {"": 1.0},
        "service.cache.hits": {"": 2.0 * n},
        "service.events": {"submitted": 1.0 + 2 * n, "started": 1.0,
                           "completed": 1.0, "cache-hit": 2.0 * n},
    }


def test_a_subscriber_attached_mid_sweep_sees_every_later_hit(tmp_path):
    specs = [spec(ntiles=nt) for nt in (NT, NT + 1, NT + 2)]
    with SweepClient(store=tmp_path / "store") as client:
        client.sweep(specs)
        server = client.server
        client.submit(specs[0])
        queue = server.subscribe()
        for s in specs[1:]:
            client.submit(s)
        events = _drain(queue)
    assert [(e.op, e.key, e.detail) for e in events] == [
        pair for s in specs[1:] for pair in (
            ("submitted", config_digest(s), str(s)),
            ("cache-hit", config_digest(s), ""))]
    assert all(a.time <= b.time for a, b in zip(events, events[1:]))


def test_one_spec_on_two_stores_reads_each_stores_own_point(tmp_path):
    """A spec's point is the store's: one ``JobSpec`` object served by
    stores that map its structure key to different structure hashes reads
    each store's own point (or misses), never another store's."""
    s = spec()
    servers = []
    for name in ("one", "two", "none"):
        store = ResultStore(tmp_path / name)
        store.put_structure(structure_key(s), f"structure-{name}")
        if name != "none":
            store.put({"hash": point_hash(f"structure-{name}", config_digest(s)),
                       "spec": s.to_dict(), "status": "ok", "report": None,
                       "timings": {}, "error": name})
        servers.append(SweepServer(store))
    for server in servers * 2:
        got = server.lookup(s)
        want = server.store.get_structure(structure_key(s))
        if want == "structure-none":
            assert got is None and server.status(s) == "unknown"
        else:
            assert got.hash == point_hash(want, config_digest(s))
            assert got.error == want.removeprefix("structure-")
    for server in servers:
        asyncio.run(server.close())


def test_two_hits_share_no_mutable_object(tmp_path):
    with SweepClient(store=tmp_path / "store") as client:
        client.submit(spec()).raise_for_status()
        first, second = client.submit(spec()), client.submit(spec())
        assert first is not second and first.report is not second.report
        for name in ("busy_time", "time_by_kind"):
            assert getattr(first.report, name) is not getattr(second.report, name)
        assert first.timings is not second.timings
        first.report.busy_time.clear()
        first.report.time_by_kind.clear()
        first.timings.clear()
        third = client.submit(spec())
    assert report_to_dict(third.report) == report_to_dict(second.report)
    assert third.report.busy_time and third.timings == second.timings


def test_sweep_survives_a_raising_point(tmp_path):
    # This spec passes JobSpec validation but raises ValueError inside
    # run_point (the graph needs 6 nodes, the machine has 2); only
    # SimulatedFailure is memoized, so the exception escapes submit().
    bad = JobSpec.make("cholesky", NT, B, SymmetricBlockCyclic(4),
                       bora(nodes=2))

    async def scenario():
        server = SweepServer(ResultStore(tmp_path / "store"))
        try:
            results = await server.sweep([spec(), bad, spec(ntiles=NT + 1)])
        finally:
            await server.close()
        return server, results

    server, results = asyncio.new_event_loop().run_until_complete(scenario())
    ok_a, failed, ok_b = results
    assert ok_a.status == "ok" and ok_b.status == "ok", \
        "one bad point must not discard the healthy points' results"
    assert server.simulations() == 2
    assert failed.status == "failed" and not failed.cached
    assert failed.hash == "" and failed.report is None
    assert "ValueError" in failed.error
    with pytest.raises(RuntimeError, match="sweep point failed"):
        failed.raise_for_status()
    # The failure is infrastructure, not simulation: nothing was stored,
    # so a corrected sweep later recomputes only that point.
    assert len(ResultStore(tmp_path / "store")) == 2


def test_store_appends_run_off_the_event_loop(tmp_path):
    """fsync-ing appends must not run on the loop thread (they would
    stall every concurrent submit and the HTTP front-end)."""
    append_threads = []

    class SpyStore(ResultStore):
        def put(self, record):
            append_threads.append(threading.get_ident())
            super().put(record)

        def put_structure(self, key, structure):
            append_threads.append(threading.get_ident())
            super().put_structure(key, structure)

    async def scenario():
        server = SweepServer(SpyStore(tmp_path / "store"))
        try:
            (await server.submit(spec())).raise_for_status()
        finally:
            await server.close()

    asyncio.new_event_loop().run_until_complete(scenario())
    loop_thread = threading.get_ident()  # run_until_complete ran here
    assert append_threads, "the store was never written"
    assert all(t != loop_thread for t in append_threads)
    assert len(set(append_threads)) == 1, "store writes must stay single-owner"


def test_store_fsync_modes(tmp_path):
    batch = ResultStore(tmp_path / "store", fsync="batch")
    batch.put({"hash": "h", "status": "ok"})
    batch.sync()
    reopened = ResultStore(tmp_path / "store")
    assert reopened.get("h")["status"] == "ok"
    with pytest.raises(ValueError, match="fsync"):
        ResultStore(tmp_path / "other", fsync="sometimes")


# --------------------------------------------------------------------------
# front doors: CLI and HTTP
# --------------------------------------------------------------------------

def test_cli_submit_twice_is_cache_hit(tmp_path, capsys):
    argv = ["submit", "--store", str(tmp_path / "store"),
            "--dist", "sbc:r=2", "--ntiles", str(NT), "--b", str(B)]
    assert service_main(argv) == 0
    assert "cached: false" in capsys.readouterr().out
    assert service_main(argv) == 0
    out = capsys.readouterr().out
    assert "cached: true" in out
    assert "makespan_seconds:" in out


def test_cli_status_and_result(tmp_path, capsys):
    store = str(tmp_path / "store")
    job = ["--dist", "sbc:r=2", "--ntiles", str(NT), "--b", str(B)]
    assert service_main(["status", "--store", store] + job) == 0
    assert capsys.readouterr().out.strip() == "unknown"
    assert service_main(["submit", "--store", store] + job) == 0
    point = next(ln.split()[1] for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("hash:"))
    assert service_main(["status", "--store", store] + job) == 0
    assert capsys.readouterr().out.strip() == "cached"
    assert service_main(["result", "--store", store, point]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["hash"] == point and record["status"] == "ok"
    assert service_main(["result", "--store", store, "deadbeef"]) == 1


def test_http_round_trip(tmp_path):
    from repro.service.http import serve_http

    loop = asyncio.new_event_loop()
    server = SweepServer(ResultStore(tmp_path / "store"))
    try:
        svc = loop.run_until_complete(serve_http(server, "127.0.0.1", 0))
    except (PermissionError, OSError) as exc:  # sandboxed runners
        loop.close()
        pytest.skip(f"cannot bind a localhost socket here: {exc}")
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        with SweepClient(url=f"http://127.0.0.1:{svc.port}") as client:
            cold = client.submit(spec()).raise_for_status()
            assert not cold.cached
            warm = client.submit(spec()).raise_for_status()
            assert warm.cached
            assert client.simulations_run() == 1
            assert client.status(spec()) == "cached"
            record = client.result_by_hash(cold.hash)
            assert record["status"] == "ok"
            assert client.result_by_hash("deadbeef") is None
            # url= mode hands back what the record holds, like in-process
            # mode: a cold point, then one that reuses its structure (a
            # tile count no other test uses, so the first really is cold).
            slow = dataclasses.replace(MACHINE, cores=MACHINE.cores // 2)
            for point, reused in ((spec(ntiles=11), False),
                                  (spec(ntiles=11, machine=slow), True)):
                res = client.submit(point).raise_for_status()
                record = client.result_by_hash(res.hash)
                assert res.peak_rss_mb == record["peak_rss_mb"] > 0.0
                assert res.graph_reused == record["graph_reused"] == reused
    finally:
        asyncio.run_coroutine_threadsafe(svc.close(), loop).result(10)
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


# --------------------------------------------------------------------------
# size cap: LRU eviction and opportunistic compaction
# --------------------------------------------------------------------------


def _rec(i, pad=200):
    return {"hash": f"h{i:04d}", "status": "ok", "pad": "x" * pad}


def test_store_cap_evicts_least_recently_used(tmp_path):
    store = ResultStore(tmp_path / "store", max_bytes=1200)
    for i in range(8):
        store.put(_rec(i))
    assert len(store) < 8 and store.evictions > 0
    assert store.get("h0000") is None  # coldest went first
    assert store.get(f"h{7:04d}") is not None  # warmest survived


def test_store_get_refreshes_recency(tmp_path):
    store = ResultStore(tmp_path / "store", max_bytes=1200)
    store.put(_rec(0))
    store.put(_rec(1))
    assert store.get("h0000") is not None  # warm h0000 back up
    i = 2
    while store.evictions == 0:
        store.put(_rec(i))
        i += 1
    assert store.get("h0000") is not None, \
        "a read must protect the record from eviction"
    assert store.get("h0001") is None, "the cold record goes first"


def test_store_cap_survives_reload(tmp_path):
    root = tmp_path / "store"
    store = ResultStore(root, max_bytes=1200)
    for i in range(8):
        store.put(_rec(i))
    live = sorted(store.hashes())
    # The capped log physically dropped evicted lines via compaction, so
    # a reload (even uncapped) sees only the live working set.
    reopened = ResultStore(root, max_bytes=1200)
    assert sorted(reopened.hashes()) == live
    assert reopened.corrupt_entries == 0


def test_store_cap_validation_and_unbounded_default(tmp_path):
    with pytest.raises(ValueError):
        ResultStore(tmp_path / "a", max_bytes=0)
    store = ResultStore(tmp_path / "b")
    for i in range(50):
        store.put(_rec(i))
    assert len(store) == 50 and store.evictions == 0


def test_store_cap_never_evicts_the_only_record(tmp_path):
    store = ResultStore(tmp_path / "store", max_bytes=16)
    store.put(_rec(0, pad=500))  # one oversized record stays usable
    assert len(store) == 1 and store.get("h0000") is not None


# --------------------------------------------------------------------------
# topology participates in the content hash
# --------------------------------------------------------------------------


def test_topology_rotates_config_digest_not_structure():
    from dataclasses import replace

    from repro.topology import chain

    m_chain = replace(MACHINE, topology=chain(
        MACHINE.nodes, MACHINE.network.bandwidth, MACHINE.network.latency))
    a, b = spec(), spec(machine=m_chain)
    assert structure_key(a) == structure_key(b), \
        "topology must not invalidate structure-level memoization"
    assert config_digest(a) != config_digest(b)


def test_topology_spec_round_trips_through_json(tmp_path):
    from dataclasses import replace

    from repro.topology import Heterogeneity, star

    topo = star(MACHINE.nodes, switch_bandwidth=2e9,
                hetero=Heterogeneity(speed=(0.5,) * MACHINE.nodes))
    s = spec(machine=replace(MACHINE, topology=topo))
    text = json.dumps(s.to_dict())
    assert "Infinity" not in text
    back = JobSpec.from_dict(json.loads(text))
    assert back == s
    assert back.machine_spec().topology == topo


def test_topology_point_is_cached_like_any_other(tmp_path):
    from dataclasses import replace

    from repro.topology import chain

    m = replace(MACHINE, topology=chain(
        MACHINE.nodes, MACHINE.network.bandwidth, MACHINE.network.latency))
    with SweepClient(store=tmp_path / "store") as client:
        cold = client.submit(spec(machine=m)).raise_for_status()
        assert not cold.cached and client.simulations_run() == 1
        warm = client.submit(spec(machine=m)).raise_for_status()
        assert warm.cached and client.simulations_run() == 1
        assert report_to_dict(warm.report) == report_to_dict(cold.report)
