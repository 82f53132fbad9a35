"""Static analysis over graphs, schedules, traces, and the codebase.

Five passes, one findings model, one CLI (``python -m repro.analyze``):

* :mod:`repro.analyze.schedule` — proves well-formedness of a compiled
  schedule (topological order, single-writer, owner-computes, link
  capacity, SBC symmetry, Theorem 1 bounds) with vectorized numpy
  sweeps that scale to the paper's largest compiled graphs;
* :mod:`repro.analyze.races` — checks every read and send of a recorded
  ``repro.obs`` trace against when its version became available on that
  node: early and missing deliveries, misordered deliveries, stale
  retransmits, run-to-run determinism;
* :mod:`repro.analyze.lint` — AST rules over the repository source
  (no unseeded randomness, no wall-clock in the simulator);
* :mod:`repro.analyze.flow` — one more rule over the repository
  source, run with the lint pass: blocking calls reachable on the event
  loop, directly or through same-module helpers (FLOW-BLOCK);
* :mod:`repro.analyze.mc` — checks every scheduler policy's plan on
  small compiled graphs and drives its ready queue through every short
  sequence of the calls the engines make, proving it never starves or
  strands a task and keeps its counts (MC-* rules), which the policy
  tournament requires before ranking.

:mod:`repro.analyze.mutate` keeps all of the above honest: a seeded
harness injects known-bad schedules, traces, source snippets, and
scheduler disciplines, and fails loudly unless every injected defect
class is detected.

The rule catalogue and severity contract live in ``docs/analyze.md``.
"""

from .findings import (
    REPORT_VERSION,
    Finding,
    Report,
    Severity,
    severity_rank,
)
from .flow import flow_module
from .lint import lint_repo, lint_sources
from .mc import (
    ModelCheckResult,
    model_check,
    require_model_checked,
    small_scope_cases,
)
from .mutate import build_baseline, run_mutation_harness, self_test
from .races import compare_traces, detect_races
from .schedule import (
    verify_all,
    verify_compiled,
    verify_sbc,
    verify_theorem1,
    verify_topology_capacity,
)

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "REPORT_VERSION",
    "severity_rank",
    "verify_compiled",
    "verify_sbc",
    "verify_theorem1",
    "verify_topology_capacity",
    "verify_all",
    "detect_races",
    "compare_traces",
    "lint_repo",
    "lint_sources",
    "flow_module",
    "model_check",
    "ModelCheckResult",
    "small_scope_cases",
    "require_model_checked",
    "build_baseline",
    "run_mutation_harness",
    "self_test",
]
