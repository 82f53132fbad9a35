"""Static schedule verification over :class:`repro.graph.CompiledGraph`.

Every rule operates on the flat arrays (kind/node columns, CSR read
adjacency, producer tables), so verification is vectorized numpy work
and scales to the paper's 10.7M-task N = 400 compiled graphs.  Rules:

* ``SCHED-TOPO`` — the task list order is a topological order (every
  read's producer precedes the reader): the runtimes scan the list once,
  so any backward read is fatal, and a dependency cycle is one;
* ``SCHED-SELF`` — no task reads the version it writes (self-dependency
  deadlock);
* ``SCHED-WRITER`` — single-writer discipline: each data version has at
  most one producing task, and the producer tables agree with the
  per-task ``write_id`` column;
* ``SCHED-READS`` — every read references a declared data id;
* ``SCHED-NODE`` — task placement lands on a valid node, and (when the
  :class:`~repro.distributions.base.Distribution` is supplied together
  with the tile keys) the *owner computes* rule holds: each task that
  writes tile (i, j) runs on ``dist.owner(i, j)``;
* ``SCHED-TOPO-CAP`` — physical link capacity: route the communication
  plan over the machine's interconnect (the attached
  :class:`repro.topology.Topology`, or the per-port clique model when
  none) and require the bytes each directed link / switch backplane
  carries to fit in ``bandwidth x makespan``.  A violated link proves
  the claimed makespan infeasible on that machine — the schedule's
  traffic cannot physically drain in the time reported;
* ``SCHED-SBC-SYM`` — SBC symmetry (§III of the paper): the owner map is
  symmetric and, per pattern position ``d``, the row-``d`` and
  column-``d`` broadcast peer sets coincide;
* ``SCHED-THM1`` — Theorem 1 volume bounds: the exact counted message
  volume stays under ``S*(r-1)`` (basic SBC) / ``S*(r-2)`` (extended
  SBC) tiles.

:func:`verify_compiled` runs the structural rules; :func:`verify_sbc`
runs the two distribution-level rules; :func:`verify_all` combines them
and is what ``python -m repro.analyze --all`` calls per builder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..comm.fast_counter import cholesky_message_count
from ..comm.formulas import sbc_cholesky_volume
from ..config import MachineSpec
from ..distributions.base import Distribution
from ..distributions.sbc import SymmetricBlockCyclic
from ..graph.compiled import CompiledGraph
from .findings import Report, Severity

__all__ = [
    "verify_compiled",
    "verify_sbc",
    "verify_theorem1",
    "verify_topology_capacity",
    "verify_all",
]

#: Cap on per-rule findings so a systemically-broken graph does not
#: produce millions of identical lines; the counting summary still
#: reports the full total.
MAX_FINDINGS_PER_RULE = 20


def _task_loc(name: str, t: int) -> str:
    return f"{name}:task {t}"


def verify_compiled(
    cg: CompiledGraph,
    dist: Optional[Distribution] = None,
    name: str = "graph",
    num_nodes: Optional[int] = None,
) -> Report:
    """Run the structural schedule rules on one compiled graph.

    ``num_nodes`` overrides the valid node range for graphs spanning
    several distributions (e.g. POTRI remapping SBC to a wider 2DBC).
    """
    rep = Report()
    n = cg.n_tasks
    rep.note_pass("schedule", n)
    if n == 0:
        return rep

    # -- SCHED-READS: reads reference declared data ids --------------------
    bad_reads = np.flatnonzero(
        (cg.read_ids < 0) | (cg.read_ids >= cg.n_data)
    )
    if len(bad_reads):
        consumers = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(cg.read_ptr)
        )
        for e in bad_reads[:MAX_FINDINGS_PER_RULE]:
            rep.add(
                "SCHED-READS", Severity.ERROR,
                f"read of undeclared data id {int(cg.read_ids[e])} "
                f"(valid ids are 0..{cg.n_data - 1})",
                _task_loc(name, int(consumers[e])),
                "every read must name an initial version or a task output",
            )
        # Undeclared reads poison the edge analysis below; stop here.
        return rep

    # -- SCHED-WRITER: single writer per data version ----------------------
    writers = np.flatnonzero(cg.write_id >= 0)
    wid = cg.write_id[writers].astype(np.int64)
    bad_wid = writers[(wid < cg.n_init) | (wid >= cg.n_data)]
    for t in bad_wid[:MAX_FINDINGS_PER_RULE]:
        rep.add(
            "SCHED-WRITER", Severity.ERROR,
            f"task writes data id {int(cg.write_id[t])}, which is not a "
            "produced-version id",
            _task_loc(name, int(t)),
            "initial versions (ids < n_init) must never be overwritten",
        )
    in_range = (wid >= 0) & (wid < cg.n_data)
    counts = np.bincount(wid[in_range], minlength=cg.n_data)
    dup_ids = np.flatnonzero(counts > 1)
    for d in dup_ids[:MAX_FINDINGS_PER_RULE]:
        culprits = writers[wid == d]
        rep.add(
            "SCHED-WRITER", Severity.ERROR,
            f"data id {int(d)} written by {int(counts[d])} tasks "
            f"{[int(c) for c in culprits[:4]]}",
            _task_loc(name, int(culprits[0])),
            "each tile version must have exactly one producer "
            "(bump the version instead of re-writing)",
        )
    # Producer-table consistency (skip ids already flagged as duplicates).
    ok_w = in_range & (counts[np.clip(wid, 0, cg.n_data - 1)] == 1)
    mismatch = writers[ok_w][
        cg.data_producer[wid[ok_w]] != writers[ok_w]
    ]
    for t in mismatch[:MAX_FINDINGS_PER_RULE]:
        d = int(cg.write_id[t])
        rep.add(
            "SCHED-WRITER", Severity.ERROR,
            f"producer table names task {int(cg.data_producer[d])} for "
            f"data id {d} but task {int(t)} writes it",
            _task_loc(name, int(t)),
            "data_producer and write_id must be inverse views",
        )

    # -- SCHED-SELF: no task reads its own output --------------------------
    consumers = np.repeat(np.arange(n, dtype=np.int64), np.diff(cg.read_ptr))
    producers = cg.data_producer[cg.read_ids]  # -1 for initial versions
    for e in np.flatnonzero(producers == consumers)[:MAX_FINDINGS_PER_RULE]:
        rep.add(
            "SCHED-SELF", Severity.ERROR,
            f"task reads data id {int(cg.read_ids[e])}, its own output "
            "(self-dependency can never become ready)",
            _task_loc(name, int(consumers[e])),
            "read the previous version and write the bumped one",
        )

    # -- SCHED-TOPO: no task reads a later task's output -------------------
    for e in np.flatnonzero(producers > consumers)[:MAX_FINDINGS_PER_RULE]:
        rep.add(
            "SCHED-TOPO", Severity.ERROR,
            f"task {int(consumers[e])} reads the output of task "
            f"{int(producers[e])}, emitted later in the list",
            _task_loc(name, int(consumers[e])),
            "builders must emit tasks in dependency order; the runtimes "
            "scan the list once (a dependency cycle is such a read)",
        )

    # -- SCHED-NODE: valid placement + owner-computes ----------------------
    if num_nodes is None:
        num_nodes = (dist.num_nodes if dist is not None
                     else int(cg.node.max()) + 1)
    bad_nodes = np.flatnonzero((cg.node < 0) | (cg.node >= num_nodes))
    for t in bad_nodes[:MAX_FINDINGS_PER_RULE]:
        rep.add(
            "SCHED-NODE", Severity.ERROR,
            f"task placed on node {int(cg.node[t])}, outside "
            f"[0, {num_nodes})",
            _task_loc(name, int(t)),
        )
    # The source-node table must name the writing task's node, or the
    # transfer plan would route tiles from the wrong port.
    writers_ok = writers[(wid >= 0) & (wid < cg.n_data)]
    wid_ok = cg.write_id[writers_ok].astype(np.int64)
    src_mismatch = writers_ok[
        cg.data_source_node[wid_ok] != cg.node[writers_ok]
    ]
    for t in src_mismatch[:MAX_FINDINGS_PER_RULE]:
        d = int(cg.write_id[t])
        rep.add(
            "SCHED-NODE", Severity.ERROR,
            f"data id {d} is declared at node "
            f"{int(cg.data_source_node[d])} but its producer runs on node "
            f"{int(cg.node[t])}",
            _task_loc(name, int(t)),
            "owner computes: a version lives where it is produced",
        )
    if dist is not None and cg.data_keys is not None:
        # Owner-computes against the distribution, for single-phase 2D
        # graphs (REMAP re-homes tiles, so skip graphs that contain it).
        kinds = set(cg.kind_names[c] for c in np.unique(cg.kind_codes))
        if "REMAP" not in kinds:
            written = [
                (t, cg.data_keys[cg.write_id[t]])
                for t in writers_ok.tolist()
            ]
            misplaced = [
                (t, k) for t, k in written
                if k.name == "A" and k.part == 0
                and dist.owner(k.i, k.j) != int(cg.node[t])
            ]
            for t, k in misplaced[:MAX_FINDINGS_PER_RULE]:
                rep.add(
                    "SCHED-NODE", Severity.ERROR,
                    f"tile ({k.i}, {k.j}) v{k.ver} is written on node "
                    f"{int(cg.node[t])} but {dist.name} owns it on node "
                    f"{dist.owner(k.i, k.j)}",
                    _task_loc(name, t),
                    "the owner-computes rule determines placement",
                )

    return rep


def verify_sbc(dist: SymmetricBlockCyclic, N: int,
               name: Optional[str] = None) -> Report:
    """SBC symmetry (§III): row/column broadcast peer sets coincide."""
    rep = Report()
    rep.note_pass("sbc-symmetry")
    label = name or dist.name
    owners = dist.owner_map(N)
    if not np.array_equal(owners, owners.T):
        i, j = np.argwhere(owners != owners.T)[0]
        rep.add(
            "SCHED-SBC-SYM", Severity.ERROR,
            f"owner map is not symmetric: owner({int(i)}, {int(j)}) = "
            f"{int(owners[i, j])} but owner({int(j)}, {int(i)}) = "
            f"{int(owners[j, i])}",
            f"{label}:tile ({int(i)}, {int(j)})",
            "SBC canonicalizes to the lower triangle; owner(i, j) must "
            "equal owner(j, i)",
        )
        return rep
    # Row-d vs column-d peer sets: with a symmetric owner map these are
    # equal by construction, so check the *pattern-level* claim that
    # makes Theorem 1 tick: every node in broadcast row/column d is a
    # pair containing d (so the two broadcasts hit the same r-1 nodes).
    r = dist.r
    if N < r:
        return rep
    for d in range(r):
        row_set = set(int(x) for x in owners[d, :N])
        col_set = set(int(x) for x in owners[:N, d])
        if row_set != col_set:
            rep.add(
                "SCHED-SBC-SYM", Severity.ERROR,
                f"pattern row {d} is served by nodes {sorted(row_set)} "
                f"but pattern column {d} by {sorted(col_set)}: the row "
                "and column broadcasts diverge",
                f"{label}:pattern position {d}",
                "each pattern position d may only hold pairs containing d",
            )
    try:
        dist.validate()
    except AssertionError as exc:
        rep.add(
            "SCHED-SBC-SYM", Severity.ERROR,
            f"diagonal pattern family is inconsistent: {exc}",
            f"{label}:diagonal patterns",
        )
    return rep


def verify_theorem1(dist: SymmetricBlockCyclic, N: int,
                    name: Optional[str] = None) -> Report:
    """Theorem 1 bound: counted POTRF volume <= S*(r-1) / S*(r-2) tiles."""
    rep = Report()
    rep.note_pass("theorem1")
    label = name or dist.name
    counted = cholesky_message_count(dist, N)
    bound = sbc_cholesky_volume(N, dist.r, dist.variant)
    fanout = "r-1" if dist.variant == "basic" else "r-2"
    if counted > bound:
        rep.add(
            "SCHED-THM1", Severity.ERROR,
            f"counted POTRF volume {counted} tiles exceeds the Theorem 1 "
            f"bound S*({fanout}) = {bound:.0f} for N={N}, r={dist.r} "
            f"({dist.variant})",
            f"{label}:N={N}",
            "the distribution does not realize the SBC broadcast "
            "structure it claims",
        )
    else:
        rep.add(
            "SCHED-THM1", Severity.INFO,
            f"POTRF volume {counted} tiles <= S*({fanout}) = {bound:.0f} "
            f"(margin {bound - counted:.0f} tiles, edge effects)",
            f"{label}:N={N}",
        )
    return rep


def verify_topology_capacity(
    cg: CompiledGraph,
    machine: MachineSpec,
    makespan: float,
    name: str = "graph",
) -> Report:
    """SCHED-TOPO-CAP: routed per-link bytes fit in capacity x makespan.

    ``makespan`` is a *claimed* execution time (typically
    ``SimReport.makespan``).  The rule lower-bounds each physical
    channel's busy time by the bytes the communication plan forces
    through it: with a :class:`repro.topology.Topology` attached, every
    message's bytes are charged to each directed edge of its static
    route (and to every finite switch backplane it crosses); without
    one, to its source's egress and destination's ingress port.  Any
    channel asked to carry more than ``bandwidth x makespan`` proves the
    claim infeasible — no event ordering can drain that traffic in the
    reported time.  The converse does not hold (a passing claim may
    still be unachievable), so the rule reports violations, not
    certificates; an INFO finding records the peak utilization.
    """
    rep = Report()
    rep.note_pass("topology-capacity")
    if makespan <= 0.0:
        rep.add(
            "SCHED-TOPO-CAP", Severity.ERROR,
            f"claimed makespan {makespan!r} is not positive",
            f"{name}:makespan",
            "capacity checks need the execution time the schedule claims",
        )
        return rep
    plan = cg.comm_plan()
    if len(plan.pair_data) == 0:
        return rep
    nbytes = cg.data_nbytes[plan.pair_data].astype(np.float64)
    src = cg.data_source_node[plan.pair_data].astype(np.int64)
    dst = plan.pair_dst.astype(np.int64)
    topo = machine.topology

    checks: list[tuple[str, float, np.ndarray]] = []
    if topo is None:
        # Scalar clique: each node owns one egress and one ingress port
        # of the uniform bandwidth (the NetworkSim serialization points).
        bw = machine.network.bandwidth
        sent = np.bincount(src, weights=nbytes, minlength=machine.nodes)
        recv = np.bincount(dst, weights=nbytes, minlength=machine.nodes)
        for kind, per_node in (("egress port", sent), ("ingress port", recv)):
            for i in np.flatnonzero(per_node > bw * makespan)[
                    :MAX_FINDINGS_PER_RULE]:
                checks.append((
                    f"node {int(i)} {kind}", bw, per_node[int(i):int(i) + 1]))
        peak = float(max(float(sent.max()), float(recv.max()))
                     / (bw * makespan))
    else:
        ct = topo.compiled()
        arrays = ct.as_arrays()
        ptr = arrays["path_ptr"]
        eid = arrays["path_eid"]
        edge_bw = arrays["edge_bw"]
        edge_sw = arrays["edge_sw"]
        sw_bw = arrays["switch_bw"]
        pidx = src * ct.num_nodes + dst
        starts = ptr[pidx]
        counts = ptr[pidx + 1] - starts
        total = int(counts.sum())
        cum = np.zeros(len(counts), dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        edges = eid[np.repeat(starts - cum, counts)
                    + np.arange(total, dtype=np.int64)]
        per_edge = np.bincount(
            edges, weights=np.repeat(nbytes, counts), minlength=ct.n_edges)
        edge_cap = edge_bw * makespan
        for e in np.flatnonzero(per_edge > edge_cap)[:MAX_FINDINGS_PER_RULE]:
            checks.append((
                f"link {ct.edge_u[int(e)]}->{ct.edge_v[int(e)]}",
                float(edge_bw[int(e)]), per_edge[int(e):int(e) + 1]))
        # Switch backplanes: bytes of every routed edge whose source
        # vertex is a finite-bandwidth switch serialize on it.
        sw_of_edges = edge_sw[edges]
        on_switch = sw_of_edges >= 0
        if bool(on_switch.any()) and ct.n_switches:
            per_sw = np.bincount(
                sw_of_edges[on_switch],
                weights=np.repeat(nbytes, counts)[on_switch],
                minlength=ct.n_switches)
            finite = np.isfinite(sw_bw)
            over_sw = np.flatnonzero(
                finite & (per_sw > sw_bw * makespan))
            for s in over_sw[:MAX_FINDINGS_PER_RULE]:
                checks.append((
                    f"switch {int(s)} backplane", float(sw_bw[int(s)]),
                    per_sw[int(s):int(s) + 1]))
        with np.errstate(invalid="ignore"):
            util = per_edge / edge_cap
        peak = float(util.max()) if len(util) else 0.0
    for label, bw, carried in checks:
        need = float(carried[0])
        rep.add(
            "SCHED-TOPO-CAP", Severity.ERROR,
            f"{label} must carry {need:.0f} B but fits only "
            f"{bw * makespan:.0f} B in the claimed makespan "
            f"({makespan:.6g} s at {bw:.3g} B/s — "
            f"{need / (bw * makespan):.2f}x capacity)",
            f"{name}:{label}",
            "the claimed makespan is physically infeasible: wire time "
            "on this channel alone exceeds it",
        )
    if not checks:
        rep.add(
            "SCHED-TOPO-CAP", Severity.INFO,
            f"peak channel utilization {peak:.2f} of capacity x makespan",
            f"{name}:topology",
        )
    return rep


def verify_all(
    cg: CompiledGraph,
    dist: Optional[Distribution] = None,
    name: str = "graph",
    N: Optional[int] = None,
    num_nodes: Optional[int] = None,
) -> Report:
    """Structural rules + SBC symmetry / Theorem 1 when they apply."""
    rep = verify_compiled(cg, dist=dist, name=name, num_nodes=num_nodes)
    if isinstance(dist, SymmetricBlockCyclic) and N is not None:
        rep.extend(verify_sbc(dist, N, name=name))
        rep.extend(verify_theorem1(dist, N, name=name))
    return rep
