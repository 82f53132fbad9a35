"""Tests of the dataflow linter (FLOW-*) and the scheduler model
checker (MC-*), plus the report-v2 / SARIF serialization they ride on.

The two acceptance-critical regressions live here:

* a revert-style test that re-introduces the PR 7 fsync-on-event-loop
  defect into the *real* ``repro/service/server.py`` source and proves
  FLOW-BLOCK catches it;
* a seeded deadlocking scheduler (a queue discipline that hides its
  backlog) that the model checker must convict with MC-DEADLOCK.
"""

import json
from pathlib import Path

import pytest

from repro.analyze import (
    REPORT_VERSION,
    Report,
    Severity,
    certify_policies,
    flow_module,
    flow_sources,
    model_check,
    require_certificates,
    severity_rank,
    small_scope_cases,
    to_sarif,
    verify_certificate,
    write_sarif,
)
from repro.analyze.mutate import (
    _FLOW_SNIPPETS,
    _HiddenBacklogQueue,
    _UndeclaredMigrator,
    _queue_policy,
)
from repro.config import laptop
from repro.distributions.block_cyclic import BlockCyclic2D
from repro.graph.compiled import compile_cholesky
from repro.schedulers import POLICIES

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
    rep = flow_sources(src_root=ROOT / "src")
    assert rep.ok(strict=True), rep.render()
    assert rep.passes.get("flow", 0) > 50


# ---------------------------------------------------------------------------
# FLOW: every rule fires on its mutant snippet, never on the clean twin
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


def test_flow_npovf_scoped_to_hot_files():
    src = "def f(cg, n):\n    return cg.node * n\n"
    assert "FLOW-NPOVF" in flow_module(
        src, "repro/graph/compiled.py").rules_hit()
    # The same arithmetic outside the int32 hot paths is fine.
    assert flow_module(src, "repro/service/x.py").ok(strict=True)


# ---------------------------------------------------------------------------
# MC: seeded deadlock + the certificate machinery
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
        "placement_safe", "exhaustive",
    }
    assert all(result.properties.values())
    assert result.states > 0 and result.transitions > 0


def test_small_scope_matrix_shape():
    cases = small_scope_cases()
    assert len(cases) >= 3
    for label, cg, machine in cases:
        assert cg.n_tasks <= 60
        assert machine.nodes <= 4
    # clique, chain and grid topologies are all represented.
    kinds = {label.rsplit("/", 1)[-1] for label, _, _ in cases}
    assert {"clique", "chain", "grid"} <= {k.split("-")[0] for k in kinds}


def test_certificates_roundtrip_verify_and_tamper(tmp_path, tiny_case):
    cg, machine = tiny_case
    cases = [("tiny/clique", cg, machine)]
    certs, rep = certify_policies(
        policies=["critical-path", "fork-join"],
        out_dir=tmp_path, cases=cases)
    assert rep.ok(strict=True), rep.render()
    for name in ("critical-path", "fork-join"):
        path = tmp_path / f"{name}.cert.json"
        doc = json.loads(path.read_text())
        assert doc == certs[name]
        assert verify_certificate(doc)
        # Any tampering breaks the digest.
        tampered = dict(doc)
        tampered["cases"] = [dict(c, states=0) for c in doc["cases"]]
        assert not verify_certificate(tampered)
        forged = dict(doc)
        forged["digest"] = "0" * 64
        assert not verify_certificate(forged)


def test_require_certificates_gates_the_zoo(tiny_case):
    cg, machine = tiny_case
    certs = require_certificates(policies=["critical-path"],
                                 cases=[("tiny/clique", cg, machine)])
    assert set(certs) == {"critical-path"}
    assert verify_certificate(certs["critical-path"])


def test_every_zoo_policy_is_certifiable_on_one_small_case(tiny_case):
    # The full small-scope sweep runs in CI / --mc; suite-side we prove
    # every registered policy certifies on one exhaustive case.
    cg, machine = tiny_case
    certs, rep = certify_policies(cases=[("tiny/clique", cg, machine)])
    assert rep.ok(strict=True), rep.render()
    assert set(certs) == set(POLICIES)
    assert all(verify_certificate(c) for c in certs.values())


# ---------------------------------------------------------------------------
# Findings report v2 + SARIF
# ---------------------------------------------------------------------------

def _sample_report():
    rep = Report()
    rep.note_pass("flow", 88)
    rep.note_pass("model-check", 24)
    rep.add("SCHED-THM1", Severity.INFO, "margin 7", "g:N=8")
    rep.add("FLOW-DICTORD", Severity.WARNING, "set feeds schedule",
            "repro/service/server.py:41", "sorted(...)")
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
        "FLOW-BLOCK", "FLOW-DICTORD", "MC-DEADLOCK", "SCHED-THM1"]
    assert {r["id"]: r["max_severity"] for r in doc["rules"]} == {
        "FLOW-BLOCK": "error", "FLOW-DICTORD": "warning",
        "MC-DEADLOCK": "error", "SCHED-THM1": "info"}
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


def test_sarif_document_shape(tmp_path):
    rep = _sample_report()
    doc = to_sarif(rep)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analyze"
    results = run["results"]
    assert [r["level"] for r in results] == [
        "error", "error", "warning", "note"]
    by_rule = {r["ruleId"]: r for r in results}
    # file:line findings annotate the source line under src/.
    phys = by_rule["FLOW-BLOCK"]["locations"][0]["physicalLocation"]
    assert phys["artifactLocation"]["uri"] == "src/repro/service/server.py"
    assert phys["region"]["startLine"] == 238
    # Synthetic locations stay addressable as logical locations.
    logical = by_rule["MC-DEADLOCK"]["locations"][0]["logicalLocations"]
    assert logical[0]["fullyQualifiedName"] == "mc:tiny[critical-path]"
    rules = run["tool"]["driver"]["rules"]
    assert {r["id"] for r in rules} == set(rep.rules_hit())
    for r in results:
        assert rules[r["ruleIndex"]]["id"] == r["ruleId"]
    assert run["properties"]["passes"] == {"flow": 88, "model-check": 24}
    # write_sarif emits the same document.
    path = tmp_path / "findings.sarif"
    write_sarif(rep, path)
    assert json.loads(path.read_text()) == doc
