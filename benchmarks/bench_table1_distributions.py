"""Table I — sizes of the considered distributions.

Regenerates the paper's Table I: for each SBC parameter r in 6..9, the
node count P = r(r-1)/2 and the two fairest 2D block-cyclic competitors
(p, q), together with the broadcast fan-outs that drive the communication
volumes (r-2 for extended SBC vs p+q-2 for 2DBC).
"""

from conftest import print_header

from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, best_rectangle
from repro.experiments import TABLE1


def build_table():
    rows = []
    for r, bc_options in TABLE1.items():
        sbc = SymmetricBlockCyclic(r)
        for i, (p, q) in enumerate(bc_options):
            bc = BlockCyclic2D(p, q)
            rows.append(
                {
                    "r": r if i == 0 else "",
                    "P_sbc": sbc.num_nodes if i == 0 else "",
                    "fanout_sbc": sbc.broadcast_fanout() if i == 0 else "",
                    "p": p,
                    "q": q,
                    "P_bc": bc.num_nodes,
                    "fanout_bc": bc.broadcast_fanout(),
                }
            )
    return rows


def test_table1(run_once):
    rows = run_once(build_table)
    print_header(
        "Table I: sizes of the considered distributions",
        f"{'r':>3} {'P':>4} {'sends':>6} | {'p':>3} {'q':>3} {'P':>4} {'sends':>6}",
    )
    for row in rows:
        print(
            f"{row['r']!s:>3} {row['P_sbc']!s:>4} {row['fanout_sbc']!s:>6} | "
            f"{row['p']:>3} {row['q']:>3} {row['P_bc']:>4} {row['fanout_bc']:>6}"
        )
    # Paper's exact numbers.
    assert SymmetricBlockCyclic(6).num_nodes == 15
    assert SymmetricBlockCyclic(7).num_nodes == 21
    assert SymmetricBlockCyclic(8).num_nodes == 28
    assert SymmetricBlockCyclic(9).num_nodes == 36


def test_best_rectangle_selects_table_options(run_once):
    """The automatic (p, q) chooser picks options listed in Table I."""

    def check():
        picks = {}
        for P in (16, 20, 21, 28, 30, 35, 36):
            d = best_rectangle(P)
            picks[P] = (d.p, d.q)
        return picks

    picks = run_once(check)
    listed = {pq for opts in TABLE1.values() for pq in opts} | {(4, 4), (6, 6)}
    for P, pq in picks.items():
        assert pq in listed, f"best_rectangle({P}) = {pq} not in Table I"
