"""Tests of the perf harness itself (not tier-1: ``pytest benchmarks/perf``).

The arithmetic runs on fake clocks; one end-to-end test drives the real
command on the cheapest workload to pin the printed metric names to
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import refkernel  # noqa: E402

DECL = json.loads(harness.BENCHMARK_JSON.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def fake_ref(clock: FakeClock, slice_seconds: list[float]) -> harness.RefClock:
    """A RefClock whose kernel takes the listed seconds, slice by slice."""
    it = iter(slice_seconds)

    def kernel() -> int:
        clock.advance(next(it))
        return refkernel.CHECKSUM

    return harness.RefClock(clock=clock, kernel=kernel)


NOMINAL = refkernel.NOMINAL_S


# -- normalisation ------------------------------------------------------------

def test_normalised_is_work_times_the_mean_speed_its_slices_saw():
    # one slice at reference speed, one on a host half as fast
    got = harness.timing(3.0, [NOMINAL, 2 * NOMINAL])
    assert (got.raw_s, got.norm_s) == (3.0, pytest.approx(3.0 * (1.0 + 0.5) / 2))
    with pytest.raises(ValueError):
        harness.timing(1.0, [])


def test_timed_pass_on_a_fake_clock_excludes_reference_time():
    clock = FakeClock()
    # opening slice, one at each of the two yields, closing slice
    ref = fake_ref(clock, [NOMINAL, 2 * NOMINAL, 2 * NOMINAL, 2 * NOMINAL])

    def segments():
        clock.advance(1.0)
        yield
        clock.advance(4.0)
        yield

    timing = harness.timed_pass(segments(), ref, harness.NullTracer(), False)
    assert timing.raw_s == pytest.approx(5.0)
    assert len(timing.slices) == 4
    assert timing.norm_s == pytest.approx(5.0 * (1.0 + 3 * 0.5) / 4)
    assert ref.samples == pytest.approx([NOMINAL] + [2 * NOMINAL] * 3)


def test_a_yield_takes_a_slice_only_when_the_gap_has_gone_by():
    clock = FakeClock()
    ref = fake_ref(clock, [NOMINAL] * 3)

    def segments():
        clock.advance(harness.GAP_S / 4)
        yield  # too soon after the opening slice
        clock.advance(harness.GAP_S)
        yield

    timing = harness.timed_pass(segments(), ref, harness.NullTracer(), False)
    assert len(timing.slices) == 3
    assert timing.raw_s == pytest.approx(1.25 * harness.GAP_S)


def test_reference_kernel_result_is_checked():
    ref = harness.RefClock(clock=FakeClock(), kernel=lambda: 0)
    with pytest.raises(RuntimeError, match="reference kernel"):
        ref.slice()


def test_a_uniformly_slower_host_reports_the_same_seconds():
    def run(slowdown: float) -> float:
        clock = FakeClock()
        ref = fake_ref(clock, [NOMINAL * slowdown] * 3)

        def segments():
            clock.advance(0.9 * slowdown)
            yield

        return harness.timed_pass(
            segments(), ref, harness.NullTracer(), False).norm_s

    assert run(1.0) == pytest.approx(run(1.9)) == pytest.approx(0.9)


def test_the_timer_signal_cuts_into_an_undivided_pass():
    ref = harness.RefClock()

    def segments():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:  # never yields in here
            pass
        yield

    timing = harness.timed_pass(segments(), ref, harness.NullTracer(), True)
    assert len(timing.slices) >= 5
    assert 0.05 < timing.raw_s < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- median / quartiles / percentiles ------------------------------------------

def test_quartiles_are_statistics_quantiles():
    v = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    q1, q2, q3 = harness.quartiles(v)
    assert [q1, q2, q3] == statistics.quantiles(v, n=4)
    assert q2 == statistics.median(v)
    assert harness.rel_iqr(v) == pytest.approx((q3 - q1) / q2)
    assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize("n, want", [
    (12_800, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (3, 50.0),
])
def test_highest_percentile_with_ten_samples_beyond_it(n, want):
    assert harness.top_percentile(n) == want


def test_percentile_is_nearest_rank():
    v = list(range(1, 101))
    assert harness.percentile(v, 50) == 50
    assert harness.percentile(v, 99) == 99
    assert harness.percentile(v, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0


# -- spans --------------------------------------------------------------------

def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    tr.pass_id = 0
    with tr.span("outer"):
        clock.advance(1.0)
        with tr.span("inner"):
            clock.advance(2.0)
            with tr.span("leaf"):
                clock.advance(4.0)
        with tr.span("inner"):
            clock.advance(8.0)
        clock.advance(16.0)
    tr.pass_id = 1
    with tr.span("outer"):
        clock.advance(0.5)
    per_pass = harness.self_times(tr.spans)
    assert per_pass[0] == {"outer": 17.0, "inner": 10.0, "leaf": 4.0}
    assert per_pass[1] == {"outer": 0.5}
    assert sum(per_pass[0].values()) == pytest.approx(31.0)
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0, -1]


def test_pass_span_parents_layer_spans_and_slices_are_not_self_time():
    clock = FakeClock()
    tr = harness.Tracer(clock)
    tr.pass_id = 0
    ref = fake_ref(clock, [NOMINAL] * 5)

    def segments():
        with tr.span("graph.compile"):
            clock.advance(1.0)
        clock.advance(0.25)
        yield  # a slice between the two layer spans
        with tr.span("simulator.lean"):
            clock.advance(2.0)
            ref.slice()  # as the timer signal would, inside the call
            clock.advance(1.0)
        yield

    timing = harness.timed_pass(segments(), ref, tr, False)
    assert timing.raw_s == pytest.approx(4.25)
    ref_span = harness.REF_SPAN
    assert [(s.name, s.parent) for s in tr.spans] == [
        (ref_span, -1), (harness.PASS_SPAN, -1), ("graph.compile", 1),
        (ref_span, 1), ("simulator.lean", 1), (ref_span, 4), (ref_span, 1),
        (ref_span, -1)]
    times = harness.self_times(tr.spans)[0]
    assert times.pop(ref_span) == pytest.approx(5 * NOMINAL)
    assert times == pytest.approx({
        harness.PASS_SPAN: 0.25, "graph.compile": 1.0, "simulator.lean": 3.0})


# -- BENCHMARK.json -----------------------------------------------------------

def test_declaration_meets_the_contract():
    assert set(DECL) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert DECL["paths"] == ["benchmarks/perf"]
    assert 2 <= len(DECL["workloads"]) <= 8
    assert 1 <= len(DECL["end_to_end"]) <= 16
    assert 1 <= len(DECL["per_layer"]) <= 128
    assert isinstance(DECL["run_seconds"], int) and 1 <= DECL["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in DECL[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in DECL["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in DECL["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECL["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECL["end_to_end"] + DECL["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in DECL["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECL["end_to_end"])


def test_declared_workloads_are_the_implemented_ones():
    sys.path.insert(0, str(harness.ROOT / "src"))
    import workloads

    assert [w["name"] for w in DECL["workloads"]] == list(workloads.WORKLOADS)
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_equal_the_declared_names(trace, key):
    proc = subprocess.run(
        harness.python_argv("--workload", "sweep_cold", "--seed", "5",
                            "--seconds", "1", "--trace", str(trace)),
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 15
    declared = {m["name"]: m["unit"] for m in DECL[key]}
    assert list(result["metrics"]) == list(declared)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [ln.split()[0] for ln in lines[:-1] if not ln.startswith("#")]
    assert printed == list(declared)
    if trace:
        doc = json.loads((harness.OUT / "trace-sweep_cold.json").read_text())
        assert {"name", "start", "end", "parent", "pass_id"} == set(doc["spans"][0])
        assert result["metrics"]["service.simulations"]["value"] == 15
        assert result["metrics"]["simulator.lean_s"]["value"] > 0
        assert result["metrics"]["service.cache_hits"]["value"] == 0


# -- the ruler and the expected statistics ---------------------------------------

def test_refkernel_hash_is_pinned():
    assert harness.refkernel_sha256() == harness.REFKERNEL_SHA256
    assert refkernel.run(refkernel.make_table()) == refkernel.CHECKSUM
    imports = [ln for ln in (HERE / "refkernel.py").read_text().splitlines()
               if ln.startswith(("import ", "from "))]
    assert imports and not any("repro" in ln for ln in imports)


def test_run_refuses_to_report_on_a_changed_refkernel(tmp_path):
    perf = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, perf, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    with open(perf / "refkernel.py", "a") as fh:
        fh.write("ITERS = 1\n")
    proc = subprocess.run(
        [sys.executable, str(perf / "run.py"), "--workload", "sweep_cold"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "refusing to report" in proc.stderr
    assert not proc.stdout.strip().endswith("}")


def test_potrf_lean_is_the_bench_engine_row():
    expected = json.loads((HERE / "expected.json").read_text())
    assert expected["potrf_lean"]["potrf_lean/N=100"] == {
        "makespan": 1.8066230440439637, "comm_messages": 35247,
        "comm_bytes": 73918316544, "num_tasks": 171700}


def test_a_mismatch_is_a_failed_operation():
    sys.path.insert(0, str(harness.ROOT / "src"))
    import workloads

    wl = workloads.PotrfLean()
    want = {"makespan": 1.5, "comm_bytes": 10, "comm_messages": 2, "num_tasks": 3}
    wl.prepare_checks(0, {"p": want, "q": want})
    ops, failures = wl.check([("p", dict(want)), ("q", {**want, "makespan": 1.6})])
    assert (ops, len(failures), wl.stat_mismatches) == (2, 1, 1)
    assert "q: simulated" in failures[0]
    units = {"wall_s": "s"}
    line = json.loads(harness.result_line(ops, failures, {"wall_s": 1.25}, units))
    assert line == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"wall_s": {"value": 1.25, "unit": "s"}}}
