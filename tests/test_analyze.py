"""Tests of the repro.analyze static-analysis subsystem.

Covers the three passes (schedule verifier, race detector, codebase
linter), the findings report format, the CLI, the mutation no-false-
negative gate, and the NetworkSim stale-heap regression the race
detector pins.
"""

import json
from heapq import heappop, heappush
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.simulator.engine as engine_mod
from repro.analyze import (
    Report,
    Severity,
    compare_traces,
    detect_races,
    lint_sources,
    mutate,
    run_mutation_harness,
    verify_compiled,
    verify_sbc,
    verify_theorem1,
)
from repro.analyze.__main__ import main as analyze_main
from repro.analyze.findings import Finding
from repro.analyze.mutate import build_baseline
from repro.config import laptop
from repro.distributions.block_cyclic import BlockCyclic2D
from repro.distributions.sbc import SymmetricBlockCyclic
from repro.graph.cholesky import build_cholesky_graph
from repro.graph.compiled import compile_graph
from repro.graph.lu import build_lu_graph
from repro.graph.properties import validate_graph
from repro.obs.events import Recorder
from repro.runtime.distributed import execute_distributed
from repro.runtime.execution import InitialDataSpec
from repro.runtime.faults import FaultPlan
from repro.runtime.local import execute_graph
from repro.runtime.simulator import simulate, simulate_compiled
from repro.runtime.simulator.network import NetworkSim
from repro.tiles.layout import TileGrid

from .strategies import fault_plans

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def baseline():
    return build_baseline()


# ---------------------------------------------------------------------------
# Findings model
# ---------------------------------------------------------------------------


def test_finding_rejects_unknown_severity():
    with pytest.raises(ValueError):
        Finding("X", "fatal", "m", "loc")


def test_report_roundtrip_and_exit_codes(tmp_path):
    rep = Report()
    rep.note_pass("schedule", 3)
    rep.add("SCHED-TOPO", Severity.ERROR, "boom", "g:task 1", "fix it")
    rep.add("RACE-RETRY", Severity.WARNING, "dup", "t:transfer 0->1")
    rep.add("SCHED-THM1", Severity.INFO, "margin 7", "g:N=8")
    assert not rep.ok()
    assert rep.exit_code() == 1
    path = tmp_path / "findings.json"
    rep.write(path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert doc["summary"] == {"errors": 1, "warnings": 1, "info": 1}
    assert doc["passes"] == {"schedule": 3}
    assert {f["rule"] for f in doc["findings"]} == {
        "SCHED-TOPO", "RACE-RETRY", "SCHED-THM1"
    }
    assert all(
        set(f) == {"rule", "severity", "message", "location", "hint"}
        for f in doc["findings"]
    )
    back = Report.from_dict(doc)
    assert back.rules_hit() == rep.rules_hit()
    assert back.passes == rep.passes

    warn_only = Report()
    warn_only.add("RACE-RETRY", Severity.WARNING, "dup", "loc")
    assert warn_only.ok() and not warn_only.ok(strict=True)
    assert warn_only.exit_code(strict=True) == 1


# ---------------------------------------------------------------------------
# Schedule verifier
# ---------------------------------------------------------------------------


def test_clean_graphs_verify_clean(baseline):
    rep = verify_compiled(baseline.cg, dist=baseline.dist)
    assert rep.ok(), rep.render()
    assert rep.num_errors == 0 and rep.num_warnings == 0
    assert rep.passes["schedule"] == baseline.cg.n_tasks


def test_sbc_symmetry_and_theorem1_clean():
    for variant, radii in (("extended", (3, 4, 5)), ("basic", (4, 6))):
        for r in radii:  # basic SBC exists for even r only
            dist = SymmetricBlockCyclic(r, variant)
            assert verify_sbc(dist, 3 * r).ok()
            rep = verify_theorem1(dist, 3 * r)
            assert rep.ok()
            # The bound is reported as advisory info, never silent.
            assert rep.by_rule("SCHED-THM1")


def test_verifier_catches_cross_distribution_placement():
    # Tiles placed per 2DBC but claimed to be SBC: owner-computes fails.
    N, b = 8, 32
    wrong = build_cholesky_graph(N, b, BlockCyclic2D(2, 3))
    rep = verify_compiled(compile_graph(wrong),
                          dist=SymmetricBlockCyclic(4))
    assert "SCHED-NODE" in rep.rules_hit()


# ---------------------------------------------------------------------------
# Mutation harness: the no-false-negative gate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_mutation_harness_catches_every_defect(baseline, seed):
    outcomes, gate = run_mutation_harness(seed=seed, base=baseline)
    assert len(outcomes) == 21
    missed = [o for o in outcomes if not o.caught]
    assert not missed, "undetected mutants: " + ", ".join(
        f"{o.name} (expected {o.expected_rule}, got {o.rules_hit})"
        for o in missed
    )
    assert gate.ok(), gate.render()
    assert "MUT-FALSE-NEGATIVE" not in gate.rules_hit()
    assert "MUT-FALSE-POSITIVE" not in gate.rules_hit()
    # The defect classes ISSUE requires are all represented.
    defects = {o.defect for o in outcomes}
    assert {"cycle", "double-writer", "symmetry-break", "volume-bound",
            "race", "dataflow", "scheduler"} <= defects
    # 6 of the mutants cover the FLOW-*/MC-* rules specifically.
    new_rules = [o for o in outcomes
                 if o.expected_rule.startswith(("FLOW-", "MC-"))]
    assert len(new_rules) == 6


def test_mutation_outcomes_have_expected_rules(baseline):
    outcomes, _ = run_mutation_harness(seed=0, base=baseline)
    by_name = {o.name: o for o in outcomes}
    assert "SCHED-TOPO" in by_name["cycle-potrf-trsm"].rules_hit
    assert "SCHED-WRITER" in by_name["double-writer"].rules_hit
    assert "SCHED-SBC-SYM" in by_name["asymmetric-owner"].rules_hit
    assert "SCHED-THM1" in by_name["fake-sbc-volume"].rules_hit
    assert "RACE-DETERMINISM" in by_name["nondeterministic-replay"].rules_hit


def test_each_trace_mutant_trips_only_its_own_rule(baseline, monkeypatch):
    # One defect, one rule: the race detector reports an early read as
    # RACE-HB and a dropped delivery as RACE-MISSING, not both.  The
    # model-checker mutants draw no randomness and take ~4 s a seed, so
    # they sit out here (the test above runs them).
    monkeypatch.setattr(mutate, "_mc_mutants", lambda: [])
    monkeypatch.setattr(mutate, "_mc_clean_baseline", Report)
    for seed in range(10):
        outcomes, _ = run_mutation_harness(seed=seed, base=baseline)
        traced = [o for o in outcomes
                  if o.defect in ("race", "nondeterminism")]
        assert len(traced) == 5
        for o in traced:
            assert o.rules_hit == [o.expected_rule], (seed, o)


# ---------------------------------------------------------------------------
# Race detector
# ---------------------------------------------------------------------------


def test_clean_trace_has_no_races(baseline):
    rep = detect_races(baseline.recorder, baseline.cg)
    assert rep.ok(), rep.render()
    assert len(rep.findings) == 0


def test_identical_traces_are_deterministic(baseline):
    rep = compare_traces(baseline.recorder, baseline.recorder)
    assert len(rep.findings) == 0


def test_detector_requires_remote_delivery(baseline):
    # Removing every transfer breaks availability for all remote reads.
    rec = Recorder(source="simulator")
    rec.task_events = list(baseline.recorder.task_events)
    rep = detect_races(rec, baseline.cg)
    assert "RACE-MISSING" in rep.rules_hit()


_LAYOUTS = {
    "sbc-ext": st.builds(SymmetricBlockCyclic, st.integers(2, 5)),
    "sbc-basic": st.builds(lambda h: SymmetricBlockCyclic(2 * h, "basic"),
                           st.integers(1, 3)),
    "2dbc": st.builds(BlockCyclic2D, st.integers(1, 3), st.integers(1, 3)),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), layout=st.sampled_from(sorted(_LAYOUTS)),
       build=st.sampled_from([build_cholesky_graph, build_lu_graph]),
       N=st.integers(2, 6), cores=st.sampled_from([1, 2, 4]),
       broadcast=st.sampled_from(["direct", "tree"]))
def test_generated_clean_traces_are_race_clean(data, layout, build, N, cores,
                                               broadcast):
    dist = data.draw(_LAYOUTS[layout])
    faults = data.draw(st.none() | fault_plans(dist.num_nodes))
    graph = build(N, 32, dist)
    cg = compile_graph(graph)
    machine = laptop(nodes=dist.num_nodes, cores=cores)
    oracle, core = Recorder(source="simulator"), Recorder(source="simulator")
    simulate(graph, machine, trace=True, broadcast=broadcast, faults=faults,
             recorder=oracle)
    simulate_compiled(cg, machine, trace=True, broadcast=broadcast,
                      faults=faults, recorder=core)
    for rec in (oracle, core):
        rep = detect_races(rec, cg)
        assert not rep.findings, rep.render()


def _local_trace(build, num_threads):
    graph = build(6, 32, SymmetricBlockCyclic(4))
    rec = Recorder()
    execute_graph(graph, InitialDataSpec(TileGrid(n=192, b=32)),
                  num_threads=num_threads, recorder=rec)
    assert rec.source == "local"
    return rec, compile_graph(graph)


@pytest.mark.parametrize("num_threads", [0, 3])
@pytest.mark.parametrize("build", [build_cholesky_graph, build_lu_graph],
                         ids=["cholesky", "lu"])
def test_local_traces_are_race_clean(build, num_threads):
    # One address space: a cross-node read needs no message.
    rec, cg = _local_trace(build, num_threads)
    rep = detect_races(rec, cg)
    assert not rep.findings, rep.render()


def test_local_read_before_its_producer_ends_is_race_hb():
    rec, cg = _local_trace(build_cholesky_graph, 0)
    ends = {e.task_id: e.end for e in rec.task_events}
    t = next(t for t in range(cg.n_tasks)
             if cg.data_producer[cg.read_ids[cg.read_ptr[t]]] >= 0)
    producer = int(cg.data_producer[cg.read_ids[cg.read_ptr[t]]])
    i = next(i for i, e in enumerate(rec.task_events) if e.task_id == t)
    e = rec.task_events[i]
    shift = e.start - ends[producer] + 1e-6
    rec.task_events[i] = e._replace(ready=e.ready - shift,
                                    start=e.start - shift, end=e.end - shift)
    assert detect_races(rec, cg).rules_hit() == ["RACE-HB"]


def test_lossy_executor_trace_is_race_clean():
    # The executor records a message when it is first received, so a
    # retransmitted message is delivered after its retry, not before.
    graph = build_cholesky_graph(6, 16, SymmetricBlockCyclic(4))
    rec = Recorder()
    run = execute_distributed(graph, InitialDataSpec(TileGrid(n=96, b=16)),
                              timeout=120, recorder=rec,
                              faults=FaultPlan(seed=1, loss_rate=0.3))
    assert run.total_retransmits > 0
    rep = detect_races(rec, compile_graph(graph))
    assert rep.ok(), rep.render()
    assert "RACE-RETRY" not in rep.rules_hit()


# ---------------------------------------------------------------------------
# Codebase linter
# ---------------------------------------------------------------------------


def _lint_tree(tmp_path, files):
    src = tmp_path / "src"
    for rel, text in files.items():
        p = src / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return lint_sources(src)


def test_lint_flags_unseeded_randomness(tmp_path):
    rep = _lint_tree(tmp_path, {
        "pkg/a.py": "import random\nx = random.random()\n",
        "pkg/b.py": "import numpy as np\ny = np.random.rand(3)\n",
        "pkg/c.py": "import numpy as np\nrng = np.random.default_rng()\n",
    })
    hits = rep.by_rule("ANA-RAND")
    assert len(hits) == 3
    assert all(h.severity == Severity.ERROR for h in hits)


def test_lint_accepts_seeded_randomness(tmp_path):
    rep = _lint_tree(tmp_path, {
        "pkg/a.py": (
            "import random\nimport numpy as np\n"
            "r = random.Random(7)\n"
            "g = np.random.default_rng(np.random.SeedSequence(3))\n"
        ),
        "tests/fixture.py": "import random\nx = random.random()\n",
    })
    assert "ANA-RAND" not in rep.rules_hit()


def test_lint_flags_wall_clock_in_simulator_only(tmp_path):
    body = "import time\nt = time.perf_counter()\n"
    rep = _lint_tree(tmp_path, {
        "repro/runtime/simulator/clocky.py": body,
        "repro/tools/bench.py": body,  # outside the simulator: allowed
    })
    hits = rep.by_rule("ANA-CLOCK")
    assert len(hits) == 1
    assert "runtime/simulator" in hits[0].location


def test_lint_flags_syntax_errors(tmp_path):
    rep = _lint_tree(tmp_path, {"pkg/bad.py": "def f(:\n"})
    assert "ANA-PARSE" in rep.rules_hit()


def test_repo_passes_its_own_lint():
    rep = lint_sources(ROOT / "src")
    assert rep.ok(), rep.render()


# ---------------------------------------------------------------------------
# validate_graph routes through the schedule verifier
# ---------------------------------------------------------------------------


def test_validate_graph_accepts_clean(baseline):
    validate_graph(baseline.graph)


def test_validate_graph_rejects_duplicate_task_ids(baseline):
    g = build_cholesky_graph(baseline.N, 32, baseline.dist)
    g.tasks[3].id = g.tasks[2].id
    with pytest.raises(AssertionError, match="duplicate task id"):
        validate_graph(g)


def test_validate_graph_rejects_self_dependency(baseline):
    g = build_cholesky_graph(baseline.N, 32, baseline.dist)
    t = g.tasks[1]
    t.reads = t.reads + (t.write,)
    with pytest.raises(AssertionError, match="self-dependency"):
        validate_graph(g)


def test_validate_graph_uses_schedule_verifier(baseline, monkeypatch):
    # Defects only visible in the compiled arrays still fail validation.
    g = build_cholesky_graph(baseline.N, 32, baseline.dist)
    calls = []
    from repro.analyze import schedule as sched_mod

    orig = sched_mod.verify_compiled

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(sched_mod, "verify_compiled", spy)
    validate_graph(g)
    assert calls


# ---------------------------------------------------------------------------
# NetworkSim stale-heap regression (PR 2 fix), pinned by the detector
# ---------------------------------------------------------------------------


class _PreFixNetworkSim(NetworkSim):
    """The pre-fix behavior: an aggregation piggy-back that raises a queued
    transfer's priority mutates it in place, leaving the heap entry's
    sort key stale; egress_freed trusts whatever surfaces first."""

    def submit(self, transfer, now):
        if self.aggregate and self._egress_busy[transfer.src]:
            for _nprio, _seq, queued in self._queues[transfer.src]:
                if queued.dst == transfer.dst and not queued.started:
                    queued.keys.append(transfer.key)
                    queued.nbytes += transfer.nbytes
                    queued.remaining += transfer.nbytes
                    if transfer.priority > queued.priority:
                        queued.priority = transfer.priority  # stale key kept
                    self.total_bytes += transfer.nbytes
                    transfer.submitted = now
                    return None
        return NetworkSim.submit(self, transfer, now)

    def egress_freed(self, src, now):
        queue = self._queues[src]
        if not queue:
            self._egress_busy[src] = False
            return None
        _negprio, _, tr = heappop(queue)  # no staleness check
        remaining = tr.remaining
        size = self.quantum if self.quantum < remaining else remaining
        tr.remaining = remaining - size
        wire = size / self._bandwidth
        occupancy = wire if tr.started else wire + self._latency
        tr.started = True
        egress_done = now + occupancy
        ingress = self._ingress_free[tr.dst] + wire
        delivery = egress_done if egress_done > ingress else ingress
        self._ingress_free[tr.dst] = delivery
        self._egress_busy[src] = True
        self.busy_time[src] += occupancy
        if tr.remaining:
            self._seq += 1
            heappush(queue, (-tr.priority, self._seq, tr))
            return tr, egress_done, delivery, False
        tr.end = delivery
        return tr, egress_done, delivery, True


def _traced_lu_run(monkeypatch, net_cls):
    # LU on SBC(4) with 4 cores is the smallest shipped config whose
    # aggregation piggy-backs raise queued priorities (the bug trigger).
    dist = SymmetricBlockCyclic(4)
    graph = build_lu_graph(10, 1024, dist)
    machine = laptop(nodes=dist.num_nodes, cores=4)
    rec = Recorder(source="simulator")
    monkeypatch.setattr(engine_mod, "NetworkSim", net_cls)
    engine_mod.simulate(graph, machine, trace=True, recorder=rec,
                        aggregate=True)
    return rec


def test_networksim_stale_heap_revert_is_flagged(monkeypatch):
    good = _traced_lu_run(monkeypatch, NetworkSim)
    replay = _traced_lu_run(monkeypatch, NetworkSim)
    assert len(compare_traces(good, replay).findings) == 0

    bad = _traced_lu_run(monkeypatch, _PreFixNetworkSim)
    rep = compare_traces(good, bad, label_a="fixed", label_b="reverted")
    assert "RACE-DETERMINISM" in rep.rules_hit()
    assert rep.num_errors > 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_graphs_pass_clean(capsys):
    assert analyze_main(["--graphs", "-q"]) == 0


def test_cli_self_test_and_report(tmp_path, capsys):
    report = tmp_path / "findings.json"
    code = analyze_main(["--self-test", "-q", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["errors"] == 0
    assert doc["passes"]["mutation"] == 21


def test_cli_lint_on_repo(capsys):
    assert analyze_main(["--lint", "--root", str(ROOT), "-q"]) == 0


def test_cli_no_mode_prints_help(capsys):
    assert analyze_main([]) == 2


def test_cli_trace_diff_detects_divergence(tmp_path, capsys, monkeypatch):
    from repro.obs.export import write_jsonl

    good = _traced_lu_run(monkeypatch, NetworkSim)
    bad = _traced_lu_run(monkeypatch, _PreFixNetworkSim)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(good, pa)
    write_jsonl(bad, pb)
    assert analyze_main(["--races", str(pa), str(pb), "-q"]) == 1
    assert analyze_main(["--races", str(pa), str(pa), "-q"]) == 0


# ---------------------------------------------------------------------------
# SCHED-TOPO-CAP: per-link capacity vs claimed makespan
# ---------------------------------------------------------------------------


class TestTopologyCapacity:
    def _setup(self, topo=None):
        from dataclasses import replace

        dist = BlockCyclic2D(2, 3)
        cg = compile_graph(build_cholesky_graph(10, 32, dist))
        m = laptop(nodes=6, cores=2)
        if topo is not None:
            m = replace(m, topology=topo)
        return cg, m

    def test_true_makespan_is_clean(self):
        from repro.analyze import verify_topology_capacity
        from repro.runtime.simulator import simulate_compiled
        from repro.topology import chain

        for topo in (None, chain(6, 1e9, 10e-6)):
            cg, m = self._setup(topo)
            rep = simulate_compiled(cg, m)
            found = verify_topology_capacity(cg, m, rep.makespan)
            assert not found.by_severity(Severity.ERROR), topo
            assert "SCHED-TOPO-CAP" in found.rules_hit()  # the INFO note

    def test_impossible_makespan_is_flagged_clique(self):
        from repro.analyze import verify_topology_capacity

        cg, m = self._setup()
        found = verify_topology_capacity(cg, m, 1e-12)
        errors = found.by_severity(Severity.ERROR)
        assert errors and all(f.rule == "SCHED-TOPO-CAP" for f in errors)

    def test_impossible_makespan_is_flagged_on_routed_edges(self):
        from repro.analyze import verify_topology_capacity
        from repro.topology import chain, star

        for topo in (chain(6, 1e9, 10e-6),
                     star(6, 1e9, 10e-6, switch_bandwidth=2e9)):
            cg, m = self._setup(topo)
            found = verify_topology_capacity(cg, m, 1e-12)
            assert found.by_severity(Severity.ERROR), topo.kind

    def test_nonpositive_makespan_rejected(self):
        from repro.analyze import verify_topology_capacity

        cg, m = self._setup()
        found = verify_topology_capacity(cg, m, 0.0)
        assert found.by_severity(Severity.ERROR)

    def test_chain_needs_more_time_than_clique(self):
        """The routed check is strictly stronger: a makespan feasible for
        the clique's per-port model can violate a chain bottleneck."""
        from repro.analyze import verify_topology_capacity
        from repro.topology import chain

        cg, m_clique = self._setup()
        cg2, m_chain = self._setup(chain(6, m_clique.network.bandwidth,
                                         m_clique.network.latency))
        # Scan makespans between the two lower bounds: a chain funnels
        # the all-pairs traffic through its middle link, so its capacity
        # bound exceeds any single node's per-port bound.
        probe = None
        for k in range(60):
            t = 1e-6 * (1e4 ** (k / 59))
            clique_ok = not verify_topology_capacity(
                cg, m_clique, t).by_severity(Severity.ERROR)
            chain_bad = bool(verify_topology_capacity(
                cg2, m_chain, t).by_severity(Severity.ERROR))
            if clique_ok and chain_bad:
                probe = t
                break
        assert probe is not None, \
            "expected a makespan feasible per-port but chain-infeasible"
