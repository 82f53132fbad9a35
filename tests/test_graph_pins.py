"""Task order and version numbering, frozen.

``graph_pins.json`` holds ``structure_hash`` / ``n_tasks`` / ``n_init`` of
every case below as the scalar builders produced them (the loop nests
this file was recorded from are gone — the factorisations' in PR 21, the
solves', inversions' and remap's in PR 22, whose standalone TRTRI / LAUUM
/ POTRI entries were recorded at its parent: every operation is now
batch phases, checked here on both sinks).  A stored sweep result is addressed by its
structure hash, so a hash that moves here is a cache that silently
empties.  ``python tests/test_graph_pins.py`` rewrites the file; do that
only together with a ``SCHEMA_VERSION`` bump (the hashes are salted with
it), after checking that it reproduces the file at the old version.
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
from repro.graph import OPERATIONS, compile_graph
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
#: case prefix -> (operation, layouts after the matrix's own)
MERGED = {
    "posv": ("posv", (RowCyclic1D(3),)),
    "potri-remap": ("potri", (BlockCyclic2D(2, 2),)),
    "potri": ("potri", ()),
    "trtri": ("trtri", ()),
    "lauum": ("lauum", ()),
}


def cases():
    """id -> (operation, its arguments): each is checked on both sinks."""
    out = {}
    for lname, dist in LAYOUTS.items():
        for N in SIZES:
            for alg in ("cholesky", "lu"):
                out[f"{alg}/{lname}/N{N}/2d"] = (alg, (N, B, dist))
                for cname, c in (("c2", 2), ("c3", 3), ("c>N", N + 1)):
                    out[f"{alg}/{lname}/N{N}/{cname}"] = (
                        alg, (N, B, TwoDotFiveD(dist, c)))
            for prefix, (op, more) in MERGED.items():
                out[f"{prefix}/{lname}/N{N}"] = (op, (N, B, dist, *more))
    return out


def fingerprint(cg):
    return {"structure": structure_hash(cg), "n_tasks": cg.n_tasks,
            "n_init": cg.n_init}


CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_numbering_is_the_recorded_one(case):
    want = json.loads(PINS.read_text())[case]
    op, args = CASES[case]
    build, direct = OPERATIONS[op]
    assert fingerprint(compile_graph(build(*args))) == want
    assert fingerprint(direct(*args)) == want


def test_every_recorded_case_is_still_checked():
    assert set(json.loads(PINS.read_text())) == set(CASES)


if __name__ == "__main__":
    PINS.write_text(json.dumps(
        {case: fingerprint(compile_graph(OPERATIONS[op][0](*args)))
         for case, (op, args) in sorted(CASES.items())},
        indent=0, sort_keys=True) + "\n")
