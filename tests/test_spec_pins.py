"""Spec hashes, frozen — and a store the parent commit wrote.

``spec_pins.json`` holds the canonical JSON, ``config_digest`` and
``structure_key`` of every case below as ``09fac3a`` produced them (the
commit before ``JobSpec`` became a table: six field lists, four
hand-written codecs, freeze / thaw), re-salted at each ``SCHEMA_VERSION``
bump since.  A stored sweep result is addressed
through these, so a value that moves here is a cache that silently empties.
``parent_store/`` is a store directory filled with the ``STORED`` cases
at the recorded version; it must be served without one simulation.
``python -m tests.test_spec_pins`` rewrites both; do that only together
with a ``SCHEMA_VERSION`` bump, after checking that it reproduces the
recorded files at the old version.
"""

import functools
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import bora, laptop
from repro.distributions import (
    BlockCyclic2D,
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
from repro.service import (
    SCHEMA_VERSION,
    JobSpec,
    SweepClient,
    config_digest,
    structure_key,
)
from repro.topology import Heterogeneity, fat_tree, grid

PINS = Path(__file__).with_name("spec_pins.json")
PARENT_STORE = Path(__file__).with_name("parent_store")
N, B = 5, 32
DISTS = {
    "sbc4-extended": SymmetricBlockCyclic(4),
    "sbc4-basic": SymmetricBlockCyclic(4, variant="basic"),
    "bc2x3": BlockCyclic2D(2, 3),
    "row5": RowCyclic1D(5),
    "25d-sbc": TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 2),
    "25d-bc": TwoDotFiveD(BlockCyclic2D(2, 2), 3),
}
#: every row kind, an infinite ``end``; the crash comes too late to fire
PLAN = FaultPlan(
    seed=7, loss_rate=0.05, retransmit_timeout=2e-3,
    slowdowns=(SlowdownWindow(0, 2.0), SlowdownWindow(1, 1.5, 1e-4, 4e-4)),
    links=(LinkDegradation(3.0, src=0), LinkDegradation(2.0, dst=1, end=1e-3)),
    crashes=(WorkerCrash(node=0, after_tasks=10**6),))
OPTIONS = {
    "defaults": {},
    "tree-agg-sync-policy": dict(broadcast="tree", aggregate=True,
                                 synchronized=True, policy="comm-avoiding"),
    "object": dict(engine="object"),
    "metrics": dict(collect_metrics=True),
}


def machines(P):
    hetero = Heterogeneity(speed=tuple(1.0 if i % 2 else 0.25 for i in range(P)),
                           cores=tuple(1 + i % 3 for i in range(P)))
    lap = laptop(nodes=P, cores=2)
    return {
        "bora": bora(P),
        "laptop-grid": replace(lap, topology=grid(1, P, 1e9, 1e-6, hetero=hetero)),
        "laptop-fattree": replace(lap, element_size=4, topology=fat_tree(
            P, 2, 1e9, 1e-6, hetero=hetero)),  # non-blocking: null bandwidths
    }


def cases():
    """id -> spec, built from live objects."""
    out = {}
    for dname, dist in DISTS.items():
        for mname, machine in machines(dist.num_nodes).items():
            for fname, faults in (("nofaults", None), ("plan", PLAN)):
                for oname, options in OPTIONS.items():
                    out[f"{dname}/{mname}/{fname}/{oname}"] = JobSpec.make(
                        "cholesky" if oname != "metrics" else "lu", N, B, dist,
                        machine, faults=faults, **options)
    return out


CASES = cases()
#: the cases the parent commit simulated into ``parent_store/``
STORED = [f"{dist}/{rest}" for dist in ("sbc4-extended", "25d-bc") for rest in (
    "bora/nofaults/defaults", "laptop-grid/plan/tree-agg-sync-policy",
    "laptop-fattree/nofaults/object", "bora/plan/metrics")]


@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(PINS.read_text())


def fingerprint(spec):
    return {"canonical": spec.canonical(), "config": config_digest(spec),
            "structure_key": structure_key(spec)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hashes_are_the_recorded_ones(case):
    """From live objects and — the one path — from their plain dicts."""
    assert recorded()["schema"] == SCHEMA_VERSION == 6
    want = recorded()["cases"][case]
    assert fingerprint(CASES[case]) == want
    assert fingerprint(JobSpec.from_dict(json.loads(want["canonical"]))) == want


def test_every_recorded_case_is_still_checked():
    assert set(recorded()["cases"]) == set(CASES)


def test_a_store_the_parent_commit_wrote_is_served_without_simulating(tmp_path):
    store = tmp_path / "store"
    shutil.copytree(PARENT_STORE, store)
    with SweepClient(store=store) as client:
        results = client.sweep([CASES[c] for c in STORED])
        assert client.simulations_run() == 0
    assert all(r.cached and r.status == "ok" for r in results)
    assert all(r.report.makespan > 0 for r in results)


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {"schema": SCHEMA_VERSION,
         "cases": {c: fingerprint(s) for c, s in CASES.items()}},
        indent=0, sort_keys=True) + "\n")
    shutil.rmtree(PARENT_STORE, ignore_errors=True)
    with SweepClient(store=PARENT_STORE) as client:
        client.sweep([CASES[c] for c in STORED])
        print(f"{len(CASES)} pins, {client.simulations_run()} stored points")
