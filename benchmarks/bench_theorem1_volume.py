"""Theorem 1 / §III-D — counted volumes vs the proven closed forms.

Regenerates the paper's analytical claims numerically: the exact counted
POTRF volume is bounded by (and converges to) S*(r-1) for basic SBC and
S*(r-2) for extended SBC, and the normalized SBC/2DBC ratio approaches
sqrt(2) as the platform grows.
"""

import math

from conftest import print_header

from repro.comm import cholesky_message_count
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.experiments import THEOREM1, theorem1_table

N = 240


def test_theorem1(run_once):
    rows = run_once(theorem1_table, N)
    print_header(
        f"Theorem 1: counted vs predicted POTRF volume (tiles, N={N})",
        f"{'distribution':>20} {'P':>4} {'counted':>9} {'formula':>9} {'ratio':>6}",
    )
    for dist, (name, counted, predicted, ratio) in zip(THEOREM1, rows):
        print(f"{name:>20} {dist.num_nodes:>4} {counted:>9} {predicted:>9} {ratio:>6.3f}")
        assert counted <= predicted
        assert counted > 0.88 * predicted  # converged to within boundary terms


def test_sqrt2_ratio(run_once):
    """Normalized volume ratio 2DBC/SBC approaches sqrt(2) as r grows."""

    def ratios():
        out = []
        for r, (p, q) in ((7, (5, 4)), (9, (6, 6)), (11, (8, 7))):
            sbc = SymmetricBlockCyclic(r)
            bc = BlockCyclic2D(p, q)
            v_sbc = cholesky_message_count(sbc, N) / math.sqrt(sbc.num_nodes)
            v_bc = cholesky_message_count(bc, N) / math.sqrt(bc.num_nodes)
            out.append((r, v_bc / v_sbc))
        return out

    rows = run_once(ratios)
    print_header("sqrt(2) convergence", f"{'r':>4} {'normalized ratio':>17}")
    for r, ratio in rows:
        print(f"{r:>4} {ratio:>17.3f}")
    # Monotone approach towards sqrt(2) ~ 1.414.
    assert rows[-1][1] > rows[0][1] - 0.02
    assert abs(rows[-1][1] - math.sqrt(2)) < 0.12
