"""End-to-end self-verification of the installation.

``python -m repro.verify`` runs a battery of cross-component consistency
checks — the same invariants the test suite relies on, packaged as a
quick (seconds) smoke test for a fresh install or a new platform:

1. numerics: tiled POTRF/POSV/POTRI match SciPy;
2. counters: the vectorized volume counter equals the count of the
   compiled graph's communication plan, for Cholesky and LU, across
   distribution families;
3. theory: counted SBC volumes respect Theorem 1's bound;
4. simulator: transferred bytes equal the counted volume, work is
   conserved, and all comm options preserve byte counts;
5. distributed: really-measured inter-process traffic equals the counter.

Each check prints PASS/FAIL; the exit status is 0 only if all pass.
"""

from __future__ import annotations

import sys
import traceback
from collections.abc import Callable

import numpy as np

__all__ = ["run_checks", "main"]


def _check_numerics() -> None:
    import repro
    from repro.kernels.reference import (
        cholesky_reference,
        posv_reference,
        potri_reference,
    )

    L, info = repro.cholesky(n=96, b=16, dist=repro.SymmetricBlockCyclic(4))
    assert np.abs(L - cholesky_reference(info["a"])).max() < 1e-9, "POTRF mismatch vs SciPy"

    x, info = repro.solve(n=64, b=16, dist=repro.SymmetricBlockCyclic(3), width=8)
    assert np.abs(x - posv_reference(info["a"], info["b"])).max() < 1e-9

    inv, info = repro.inverse(
        n=64, b=16, dist=repro.SymmetricBlockCyclic(4),
        trtri_dist=repro.BlockCyclic2D(3, 2),
    )
    assert np.abs(inv - potri_reference(info["a"])).max() < 1e-8


def _check_counters() -> None:
    from repro.comm import (
        cholesky_volume_exact,
        count_communications,
        lu_message_count,
    )
    from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
    from repro.graph import compile_cholesky, compile_lu

    for dist in (SymmetricBlockCyclic(5), SymmetricBlockCyclic(6, variant="basic"),
                 BlockCyclic2D(3, 4)):
        cg = compile_cholesky(14, 16, dist)
        assert cholesky_volume_exact(dist, 14, 16) == count_communications(cg).total_bytes
        cl = compile_lu(10, 16, dist)
        assert lu_message_count(dist, 10) == count_communications(cl).num_messages


def _check_theorem1() -> None:
    from repro.comm import cholesky_message_count, storage_tiles
    from repro.distributions import SymmetricBlockCyclic

    for r in (5, 6, 7, 8):
        d = SymmetricBlockCyclic(r)
        for N in (16, 48):
            assert cholesky_message_count(d, N) <= storage_tiles(N) * (r - 2), (
                f"Theorem 1 bound violated for r={r}, N={N}"
            )


def _check_simulator() -> None:
    from repro.comm import count_communications
    from repro.config import laptop
    from repro.distributions import SymmetricBlockCyclic
    from repro.graph import build_cholesky_graph
    from repro.runtime import simulate

    g = build_cholesky_graph(12, 32, SymmetricBlockCyclic(4))
    m = laptop(nodes=6, cores=2)
    cc = count_communications(g)
    for kwargs in ({}, {"broadcast": "tree"}, {"aggregate": True},
                   {"synchronized": True}):
        rep = simulate(g, m, **kwargs)
        assert rep.num_tasks == len(g.tasks), f"lost tasks with {kwargs}"
        assert rep.comm_bytes == cc.total_bytes, f"byte mismatch with {kwargs}"
        assert 0 < rep.avg_utilization <= 1.0


def _check_mp_executor() -> None:
    from repro.comm import count_communications
    from repro.distributions import SymmetricBlockCyclic
    from repro.graph import build_cholesky_graph
    from repro.runtime import InitialDataSpec, execute_distributed
    from repro.tiles import TileGrid

    g = build_cholesky_graph(6, 16, SymmetricBlockCyclic(3))
    rep = execute_distributed(g, InitialDataSpec(TileGrid(n=96, b=16), seed=1),
                              timeout=120)
    assert rep.total_bytes == count_communications(g).total_bytes


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("numerics vs SciPy (POTRF/POSV/POTRI)", _check_numerics),
    ("volume counters (plan == vectorized)", _check_counters),
    ("Theorem 1 bound", _check_theorem1),
    ("simulator conservation (all comm options)", _check_simulator),
    ("distributed executor traffic", _check_mp_executor),
]


def run_checks(verbose: bool = True) -> bool:
    """Run every check; returns True if all pass."""
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
            status = "PASS"
        except Exception:
            status = "FAIL"
            ok = False
            if verbose:
                traceback.print_exc()
        if verbose:
            print(f"[{status}] {name}")
    return ok


def main() -> int:
    print("repro self-verification")
    print("-----------------------")
    ok = run_checks()
    print("-----------------------")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
