"""Tests of the event-loop blocking rule (FLOW-BLOCK) and the scheduler
model checker (MC-*), plus the report-v2 serialization they ride on.

The two acceptance-critical regressions live here:

* a revert-style test that re-introduces the PR 7 fsync-on-event-loop
  defect into the *real* ``repro/service/server.py`` source and proves
  FLOW-BLOCK catches it;
* a seeded deadlocking scheduler (a queue discipline that hides its
  backlog) that the model checker must convict with MC-DEADLOCK;

and the checker's queue verdicts are pinned to what both engines do with
the same queues.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import (
    REPORT_VERSION,
    Report,
    Severity,
    flow_module,
    model_check,
    require_model_checked,
    severity_rank,
    small_scope_cases,
)
from repro.analyze.__main__ import run_lint
from repro.analyze.mutate import (
    _FLOW_SNIPPETS,
    _HiddenBacklogQueue,
    _LyingLedgerQueue,
    _RefusingQueue,
    _UndeclaredMigrator,
    _ZeroDepthQueue,
    _queue_policy,
)
from repro.config import laptop
from repro.distributions import BlockCyclic2D, RowCyclic1D
from repro.graph import build_cholesky_graph, compile_cholesky, compile_graph
from repro.runtime.simulator import simulate, simulate_compiled
from repro.schedulers import POLICIES, PriorityQueues, WorkStealingQueues

ROOT = Path(__file__).resolve().parents[1]
SERVER = ROOT / "src" / "repro" / "service" / "server.py"


@pytest.fixture(scope="module")
def tiny_case():
    cg = compile_cholesky(4, 32, BlockCyclic2D(2, 2))
    return cg, laptop(nodes=4, cores=1)


# ---------------------------------------------------------------------------
# FLOW: the revert-style PR 7 regression
# ---------------------------------------------------------------------------

#: The executor hand-off PR 7 introduced; reverting it re-creates the
#: fsync-on-the-event-loop defect the flow pass exists to catch.
_EXECUTOR_HANDOFF = (
    "await loop.run_in_executor(\n"
    "                self._io, self._persist, structure_key(spec), record\n"
    "            )"
)


def test_flow_block_catches_reverted_fsync_defect():
    src = SERVER.read_text(encoding="utf-8")
    assert _EXECUTOR_HANDOFF in src, (
        "server.py no longer hands _persist to the executor the way this "
        "regression test expects; update _EXECUTOR_HANDOFF"
    )
    reverted = src.replace(
        _EXECUTOR_HANDOFF, "self._persist(structure_key(spec), record)")
    rep = flow_module(reverted, "repro/service/server.py")
    hits = rep.by_rule("FLOW-BLOCK")
    assert hits, "reverting the executor hand-off must trip FLOW-BLOCK"
    assert all(f.severity == Severity.ERROR for f in hits)
    # Location formatting: a real file:line inside the async submit path.
    assert all(f.location.startswith("repro/service/server.py:")
               for f in hits)


def test_flow_clean_on_current_server():
    rep = flow_module(SERVER.read_text(encoding="utf-8"),
                      "repro/service/server.py")
    assert rep.ok(strict=True), rep.render()


def test_flow_clean_on_whole_tree():
    rep = run_lint(ROOT, quiet=True)
    assert rep.ok(strict=True), rep.render()
    assert rep.passes.get("flow", 0) > 50


# ---------------------------------------------------------------------------
# FLOW: the rule fires on each mutant snippet, never on the clean twin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,rule,clean_src,bad_src,rel",
    _FLOW_SNIPPETS,
    ids=[s[0] for s in _FLOW_SNIPPETS],
)
def test_flow_snippet_pairs(name, rule, clean_src, bad_src, rel):
    assert rule in flow_module(bad_src, rel).rules_hit()
    assert flow_module(clean_src, rel).ok(strict=True)


def test_flow_shutdown_exemption():
    src = (
        "class Server:\n"
        "    async def stop(self):\n"
        "        self._io.shutdown()\n"
    )
    assert flow_module(src, "repro/service/x.py").ok(strict=True)


def test_lost_coroutine_fails_the_suite(tmp_path):
    """A coroutine created and never awaited silently does nothing; the
    ``filterwarnings`` of pyproject.toml turn it into a test failure,
    anywhere in the suite."""
    case = tmp_path / "test_lost.py"
    case.write_text(
        "import gc\n\n"
        "async def fetch():\n    return 1\n\n"
        "def test_drops_a_coroutine():\n"
        "    fetch()\n    gc.collect()\n"
        "def test_awaits_it():\n"
        "    import asyncio\n    assert asyncio.run(fetch()) == 1\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(case)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "never awaited" in run.stdout
    assert "1 failed, 1 passed" in run.stdout


# ---------------------------------------------------------------------------
# MC: seeded deadlock + the tournament's gate
# ---------------------------------------------------------------------------

def test_mc_convicts_seeded_deadlocking_scheduler(tiny_case):
    cg, machine = tiny_case
    policy = _queue_policy("seeded-deadlock", _HiddenBacklogQueue)
    result, rep = model_check(cg, machine, policy, label="seeded")
    assert "MC-DEADLOCK" in rep.rules_hit()
    assert result.properties["deadlock_free"] is False
    assert not result.ok()
    # Location formatting: mc:<label>[<policy>].
    assert rep.by_rule("MC-DEADLOCK")[0].location == \
        "mc:seeded[seeded-deadlock]"


def test_mc_convicts_undeclared_migrator(tiny_case):
    cg, machine = tiny_case
    _, rep = model_check(cg, machine, _UndeclaredMigrator(), label="seeded")
    assert "MC-PLACE" in rep.rules_hit()


def test_mc_clean_policy_proves_all_properties(tiny_case):
    cg, machine = tiny_case
    result, rep = model_check(cg, machine, "critical-path", label="tiny")
    assert rep.ok(strict=True), rep.render()
    assert result.ok()
    assert set(result.properties) == {
        "deadlock_free", "starvation_free", "queue_consistent",
        "placement_safe",
    }
    assert all(result.properties.values())
    # every sequence of up to 6 calls, each one of 2 x 2 pushes or 2 pops
    assert result.states == sum(6 ** k for k in range(7))


def test_small_scope_matrix_shape():
    cases = small_scope_cases()
    assert len(cases) >= 3
    for label, cg, machine in cases:
        assert cg.n_tasks <= 60
        assert machine.nodes <= 4
    # clique, chain and grid topologies are all represented.
    kinds = {label.rsplit("/", 1)[-1] for label, _, _ in cases}
    assert {"clique", "chain", "grid"} <= {k.split("-")[0] for k in kinds}


def test_require_certificates_gates_the_zoo(tiny_case):
    cg, machine = tiny_case
    cases = [("tiny/clique", cg, machine)]
    results = require_model_checked(policies=["critical-path"], cases=cases)
    assert set(results) == {"critical-path"}
    assert [r.label for r in results["critical-path"]] == ["tiny/clique"]
    assert results["critical-path"][0].states > 0
    # An unproved property raises, naming policy, case and property.
    bad = _queue_policy("seeded-deadlock", _HiddenBacklogQueue)
    with pytest.raises(RuntimeError) as exc:
        require_model_checked(policies=["critical-path", bad], cases=cases)
    assert "seeded-deadlock on tiny/clique: deadlock_free" in str(exc.value)
    assert "MC-DEADLOCK" in str(exc.value)
    assert "critical-path on" not in str(exc.value)


def test_every_zoo_policy_is_certifiable_on_one_small_case(tiny_case):
    # The full small-scope sweep runs in CI / --mc; suite-side we prove
    # every registered policy model-checks on one exhaustive case.
    cg, machine = tiny_case
    results = require_model_checked(cases=[("tiny/clique", cg, machine)])
    assert set(results) == set(POLICIES)
    assert all(r.ok() for rs in results.values() for r in rs)


# ---------------------------------------------------------------------------
# MC: the verdicts against the engines the rules protect
# ---------------------------------------------------------------------------

#: the zoo's queues, the three seeded queue mutants, and the native queue
#: with ``depth()`` always 0 (neither engine dispatches on ``depth``)
QUEUES = [PriorityQueues, WorkStealingQueues, _HiddenBacklogQueue,
          _RefusingQueue, _LyingLedgerQueue, _ZeroDepthQueue]


def _outcome(engine, graph, machine, policy):
    try:
        rep = engine(graph, machine, scheduler=policy)
    except RuntimeError as exc:
        return str(exc)
    return rep.makespan, rep.comm_bytes, rep.comm_messages


@pytest.mark.parametrize("case", small_scope_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("queue", QUEUES, ids=lambda q: q.__name__)
def test_what_the_checker_convicts_the_engines_cannot_run(queue, case):
    """A queue convicted of MC-DEADLOCK or MC-STARVE strands tasks on both
    engines; any other — accepted, or convicted of MC-QUEUE only — runs,
    oracle == core.  On each case's machine the engines run an N = 8
    row-cyclic Cholesky, which keeps the workers busy enough to queue
    (some of the cases' own graphs never push)."""
    label, cg, machine = case
    policy = _queue_policy(queue.__name__, queue)
    result, _ = model_check(cg, machine, policy, label=label)
    g = build_cholesky_graph(8, 32, RowCyclic1D(machine.nodes))
    oracle, core = (_outcome(simulate, g, machine, policy),
                    _outcome(simulate_compiled, compile_graph(g), machine,
                             policy))
    if result.properties["deadlock_free"] and result.properties["starvation_free"]:
        assert oracle == core and not isinstance(oracle, str)
    else:
        for run in (oracle, core):
            assert "simulation deadlock" in run


def test_a_depth_no_engine_dispatches_on_is_at_most_mc_queue(tiny_case):
    """``depth()`` feeds only the oracle's trace gauge: the native queue
    with a zero depth runs bit-identically to the native one on both
    engines, so its lie is an MC-QUEUE finding and nothing worse."""
    cg, machine = tiny_case
    policy = _queue_policy("zero-depth", _ZeroDepthQueue)
    _, rep = model_check(cg, machine, policy, label="tiny")
    assert rep.rules_hit() == ["MC-QUEUE"]
    g = build_cholesky_graph(4, 32, BlockCyclic2D(2, 2))
    native = _outcome(simulate, g, machine, None)
    assert native[0] == 0.0003341878695652173
    assert (_outcome(simulate, g, machine, policy)
            == _outcome(simulate_compiled, cg, machine, policy) == native)


# ---------------------------------------------------------------------------
# Findings report v2
# ---------------------------------------------------------------------------

def _sample_report():
    rep = Report()
    rep.note_pass("flow", 88)
    rep.note_pass("model-check", 24)
    rep.add("SCHED-THM1", Severity.INFO, "margin 7", "g:N=8")
    rep.add("RACE-RETRY", Severity.WARNING, "retry after delivery",
            "trace:transfer 0->3")
    rep.add("FLOW-BLOCK", Severity.ERROR, "fsync on loop",
            "repro/service/server.py:238", "run_in_executor")
    rep.add("MC-DEADLOCK", Severity.ERROR, "stranded tasks",
            "mc:tiny[critical-path]")
    return rep


def test_report_v2_roundtrip_with_new_rule_ids():
    rep = _sample_report()
    doc = rep.to_dict()
    assert doc["version"] == REPORT_VERSION == 2
    assert [r["id"] for r in doc["rules"]] == [
        "FLOW-BLOCK", "MC-DEADLOCK", "RACE-RETRY", "SCHED-THM1"]
    assert {r["id"]: r["max_severity"] for r in doc["rules"]} == {
        "FLOW-BLOCK": "error", "MC-DEADLOCK": "error",
        "RACE-RETRY": "warning", "SCHED-THM1": "info"}
    back = Report.from_dict(doc)
    assert [f.rule for f in back] == [f.rule for f in rep]
    assert back.passes == rep.passes
    assert back.to_dict() == doc


def test_report_other_versions_are_rejected():
    doc = _sample_report().to_dict()
    for version in (1, 3, None):
        with pytest.raises(ValueError, match="unsupported report version"):
            Report.from_dict(dict(doc, version=version))


def test_severity_ordering_is_stable():
    assert [severity_rank(s) for s in ("error", "warning", "info")] == \
        [0, 1, 2]
    assert severity_rank("someday-new") == 3
    ordered = _sample_report().ordered()
    assert [f.severity for f in ordered] == [
        "error", "error", "warning", "info"]
    # Equal-severity findings keep their discovery order.
    assert [f.rule for f in ordered[:2]] == ["FLOW-BLOCK", "MC-DEADLOCK"]
