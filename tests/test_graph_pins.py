"""Task order and version numbering, frozen.

``graph_pins.json`` holds ``structure_hash`` / ``n_tasks`` / ``n_init`` of
every case below as the scalar builders of PR 20 produced them (the
loop nests this file was recorded from are gone: each factorisation is
now one batch phase).  A stored sweep result is addressed by its
structure hash, so a hash that moves here is a cache that silently
empties.  ``python tests/test_graph_pins.py`` rewrites the file; do that
only together with a ``SCHEMA_VERSION`` bump.
"""

import json
from pathlib import Path

import pytest

from repro.distributions import (
    BlockCyclic2D,
    RowCyclic1D,
    SymmetricBlockCyclic,
    TwoDotFiveD,
)
from repro.graph import (
    build_cholesky_graph,
    build_cholesky_graph_25d,
    build_lu_graph,
    build_lu_graph_25d,
    build_posv_graph,
    build_potri_graph,
    compile_cholesky,
    compile_graph,
    compile_lu,
)
from repro.service.hashing import structure_hash

PINS = Path(__file__).with_name("graph_pins.json")
B = 32
LAYOUTS = {
    "sbc4-basic": SymmetricBlockCyclic(4, variant="basic"),
    "sbc4-extended": SymmetricBlockCyclic(4),
    "bc3x2": BlockCyclic2D(3, 2),
    "row5": RowCyclic1D(5),
}
SIZES = (1, 2, 7, 24)
FACTORISATIONS = {
    "cholesky": (build_cholesky_graph, build_cholesky_graph_25d, compile_cholesky),
    "lu": (build_lu_graph, build_lu_graph_25d, compile_lu),
}


def cases():
    """id -> (object-graph thunk, column-sink thunk or None)."""
    out = {}
    for alg, (build, build_25d, direct) in FACTORISATIONS.items():
        for lname, dist in LAYOUTS.items():
            for N in SIZES:
                out[f"{alg}/{lname}/N{N}/2d"] = (
                    lambda build=build, N=N, dist=dist: build(N, B, dist),
                    lambda direct=direct, N=N, dist=dist: direct(N, B, dist))
                for cname, c in (("c2", 2), ("c3", 3), ("c>N", N + 1)):
                    d25 = TwoDotFiveD(dist, c)
                    out[f"{alg}/{lname}/N{N}/{cname}"] = (
                        lambda build=build_25d, N=N, d25=d25: build(N, B, d25),
                        lambda direct=direct, N=N, d25=d25: direct(N, B, d25))
    for lname, dist in LAYOUTS.items():
        for N in SIZES:
            out[f"posv/{lname}/N{N}"] = (
                lambda N=N, dist=dist: build_posv_graph(
                    N, B, dist, RowCyclic1D(3)), None)
            out[f"potri-remap/{lname}/N{N}"] = (
                lambda N=N, dist=dist: build_potri_graph(
                    N, B, dist, trtri_dist=BlockCyclic2D(2, 2)), None)
    return out


def fingerprint(cg):
    return {"structure": structure_hash(cg), "n_tasks": cg.n_tasks,
            "n_init": cg.n_init}


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_numbering_is_the_recorded_one(case):
    want = json.loads(PINS.read_text())[case]
    build, direct = CASES[case]
    assert fingerprint(compile_graph(build())) == want
    if direct is not None:
        assert fingerprint(direct()) == want


def test_every_recorded_case_is_still_checked():
    assert set(json.loads(PINS.read_text())) == set(CASES)


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {case: fingerprint(compile_graph(build()))
         for case, (build, _) in sorted(CASES.items())},
        indent=0, sort_keys=True) + "\n")
