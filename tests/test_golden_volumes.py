"""Golden regression values for the exact communication counters.

These exact message counts were cross-validated three independent ways
(graph counter, vectorized counter, and — at small sizes — really-measured
multiprocessing traffic).  Pinning them guards the counters against
accidental regressions: any change to these numbers is a semantic change
to the reproduction and must be deliberate.
"""

import pytest

from repro.comm import (
    cholesky_message_count,
    communication_profile,
    count_communications,
    lu_message_count,
)
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import build_cholesky_graph_25d, build_potri_graph, compile_cholesky

# (distribution factory, N) -> exact POTRF message count
CHOLESKY_GOLDEN = {
    ("sbc7", 60): 9106,
    ("sbc7", 240): 144554,
    ("sbc8", 240): 173448,
    ("sbc6b", 240): 144565,
    ("bc54", 240): 198614,
    ("bc74", 60): 14889,
    ("bc74", 240): 253839,
    ("bc66", 240): 282040,
}

DISTS = {
    "sbc7": lambda: SymmetricBlockCyclic(7),
    "sbc8": lambda: SymmetricBlockCyclic(8),
    "sbc6b": lambda: SymmetricBlockCyclic(6, variant="basic"),
    "bc54": lambda: BlockCyclic2D(5, 4),
    "bc74": lambda: BlockCyclic2D(7, 4),
    "bc66": lambda: BlockCyclic2D(6, 6),
}


@pytest.mark.parametrize("key,N", sorted(CHOLESKY_GOLDEN))
def test_cholesky_golden(key, N):
    dist = DISTS[key]()
    assert cholesky_message_count(dist, N) == CHOLESKY_GOLDEN[(key, N)]


def test_lu_golden():
    assert lu_message_count(BlockCyclic2D(4, 4), 160) == 77260


def test_potri_golden():
    """The §V-F.2 comparison recorded in EXPERIMENTS.md (N=72, P=28)."""
    # Only spot-check the cheap graph here; the N=72 triple
    # (57643 / 58872 / 64830) takes ~90s and is recorded in EXPERIMENTS.md.
    g = build_potri_graph(24, 8, SymmetricBlockCyclic(8),
                          trtri_dist=BlockCyclic2D(7, 4))
    assert count_communications(g).num_messages == 6108


def test_25d_golden():
    d = TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3)
    g = build_cholesky_graph_25d(48, 8, d)
    assert count_communications(g).num_messages == 5727


def test_attribution_golden():
    """Which kernel and which iteration a message is charged to: its first
    consumer's, as a walk over the task list in id order finds it.  The
    values were recorded by that walk (SBC(4), N = 8)."""
    cg = compile_cholesky(8, 32, SymmetricBlockCyclic(4))
    assert count_communications(cg).messages_by_kind == {
        "GEMM": 43, "SYRK": 11, "TRSM": 11}
    assert [(p.iteration, p.messages) for p in communication_profile(cg)] == [
        (0, 16), (1, 14), (2, 12), (3, 10), (4, 8), (5, 4), (6, 1), (7, 0)]
