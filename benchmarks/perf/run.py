#!/usr/bin/env python3
"""Host-normalised layered perf benchmark — entry point.

    python3 benchmarks/perf/run.py --workload potrf_lean [--seed 0]
        [--seconds 13] [--trace 0|1] [--json FILE]
    python3 benchmarks/perf/run.py --all            # one fresh interpreter each
    python3 benchmarks/perf/run.py --selfcheck [--sets 2 --runs 5]
    python3 benchmarks/perf/run.py --regen-expected

Prints every metric by name with its unit, checks the outputs, reports
operations attempted / failed, and ends with one JSON line (the
``BENCHMARK.json`` contract).  ``repro`` is imported from this
checkout's ``src/``.  README.md has the method and the metric tables.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import harness  # noqa: E402
from harness import PASS_SPAN, REF_SPAN, RefClock, Timing, Tracer  # noqa: E402

EXPECTED_JSON = HERE / "expected.json"


def guard_refkernel() -> None:
    """Nobody speeds up the ruler: refuse to report on a changed kernel."""
    got = harness.refkernel_sha256()
    if got != harness.REFKERNEL_SHA256:
        sys.exit(f"refkernel.py has SHA-256 {got}, the benchmark pins "
                 f"{harness.REFKERNEL_SHA256}: refusing to report")


def make_workdir(name: str) -> Path:
    harness.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=harness.OUT))


def load_workload(name: str) -> Any:
    import workloads

    return workloads.WORKLOADS[name]()


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def setup_only(args: argparse.Namespace) -> int:
    """What a set-up child does: import, build inputs, first cold pass,
    reference slices interleaved; prints the slices' durations."""
    ref = RefClock()
    ref.start(timer=True)
    wl = load_workload(args.workload)
    ref.set_timer(wl.timer)
    workdir = make_workdir(wl.name)
    try:
        wl.setup(args.seed, workdir, ref.tick)
        for _ in wl.run_pass(harness.NullTracer(), []):
            ref.tick()
        print(json.dumps(ref.stop().slices))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class LayerContext:
    """What a workload's ``layer_metrics`` may ask the traced run for."""

    def __init__(self, ref: RefClock, rows: list[dict[str, float]],
                 scale: float, wall_s: float) -> None:
        self._ref = ref
        self._rows = rows
        #: reference-host seconds per raw second during the traced passes
        self.scale = scale
        #: the untraced passes' median, reference-host seconds
        self.wall_s = wall_s

    def layer_s(self, span: str) -> float:
        """Median over the traced passes of a span name's self time."""
        return statistics.median(row.get(span, 0.0) for row in self._rows)

    def bench(self, fn: Callable[[], Any], repeat: int = 3,
              timer: bool = True) -> float:
        """Reference-host seconds of one ``fn()`` call (median of
        ``repeat``), reference slices interleaved as in a timed pass;
        ``timer=False`` when ``fn`` computes outside the main thread."""
        values = []
        for _ in range(repeat):
            self._ref.start(timer=timer)
            fn()
            values.append(self._ref.stop().norm_s)
        return statistics.median(values)

    @staticmethod
    def tail(samples: Sequence[float], p: float) -> float:
        """The p-th percentile, refused when fewer than ten samples lie
        beyond it."""
        if harness.top_percentile(len(samples)) < p:
            raise ValueError(f"{len(samples)} samples cannot support p{p}")
        return harness.percentile(samples, p)


def layer_rows(tr: Tracer, passes: Sequence[Timing]) -> list[dict[str, float]]:
    """Per traced pass: span name -> self time in reference-host seconds
    (the reference slices themselves left out)."""
    per_pass = harness.self_times(tr.spans)
    return [{name: t * p.norm_s / p.raw_s
             for name, t in per_pass[i].items() if name != REF_SPAN}
            for i, p in enumerate(passes)]


def layer_shares(rows: Sequence[dict[str, float]]) -> dict[str, float]:
    """Median share of the traced pass per layer (the span name's prefix);
    ``bench`` is the harness's own span around the pass: time no layer
    span covers."""
    shares: dict[str, list[float]] = defaultdict(list)
    for row in rows:
        total = sum(row.values())
        by_layer: dict[str, float] = defaultdict(float)
        for name, t in row.items():
            by_layer[name.split(".")[0]] += t / total
        for layer, share in by_layer.items():
            shares[layer].append(share)
    return {layer: statistics.median(v) for layer, v in sorted(shares.items())}


def run_traced(wl: Any, ref: RefClock, tally: harness.RunTimings,
               seconds: float, names: Sequence[str]) -> tuple[dict[str, float], dict[str, Any]]:
    # Untraced and traced passes take turns, so that the host's drift
    # lands on both sides of ``bench.trace_overhead_ratio``.
    tr = Tracer()
    untraced: list[Timing] = []
    traced: list[Timing] = []
    deadline = time.perf_counter() + 0.6 * seconds
    while len(traced) < harness.TRACED_PASSES or time.perf_counter() < deadline:
        untraced += harness.run_passes(wl, ref, tally, count=1)
        traced += harness.run_passes(wl, ref, tally, count=1, tr=tr)
    wall_s = statistics.median(p.norm_s for p in untraced)
    rows = layer_rows(tr, traced)
    shares = layer_shares(rows)

    # Sweep points run inside ``submit``; replayed afterwards as direct
    # layer calls, their spans say where the time inside it goes.
    replay_tr = Tracer()
    replay_shares: dict[str, float] = {}
    if hasattr(wl, "replay"):
        replays = []
        for i in range(len(traced)):
            replay_tr.pass_id = i
            replays.append(
                harness.timed_pass(wl.replay(replay_tr), ref, replay_tr, True))
        replay_rows = layer_rows(replay_tr, replays)
        replay_shares = layer_shares(replay_rows)
        for row, extra in zip(rows, replay_rows):
            for name, t in extra.items():
                if name != PASS_SPAN:
                    row[name] = row.get(name, 0.0) + t

    scale = statistics.median(p.norm_s / p.raw_s for p in traced)
    ctx = LayerContext(ref, rows, scale, wall_s)
    metrics = dict.fromkeys(names, 0.0)
    for name in names:
        if name.endswith("_s") and any(name[:-2] in row for row in rows):
            metrics[name] = ctx.layer_s(name[:-2])
    metrics.update(wl.layer_metrics(ctx))
    metrics.update({
        "bench.wall_raw_s": statistics.median(p.raw_s for p in untraced),
        "bench.pass_iqr_rel": harness.rel_iqr([p.norm_s for p in untraced]),
        "bench.trace_overhead_ratio": statistics.median(
            t.norm_s / u.norm_s for t, u in zip(traced, untraced)),
        "bench.layer_coverage": 1.0 - shares["bench"],
    })
    trace_doc = {
        "passes": [vars(p) for p in traced],
        "spans": [vars(s) for s in tr.spans],
        "replay_spans": [vars(s) for s in replay_tr.spans],
        "layer_shares": shares,
        "replay_layer_shares": replay_shares,
    }
    return metrics, trace_doc


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"{name:<{width}}  {metrics[name]:.6g} {unit}")


def measure(args: argparse.Namespace) -> int:
    decl = harness.load_declaration()
    guard_refkernel()
    traced = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else decl["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in decl["per_layer" if traced else "end_to_end"]}
    wl = load_workload(args.workload)
    with open(EXPECTED_JSON) as fh:
        expected = json.load(fh)[wl.name]
    host = harness.fingerprint()
    print(f"# workload {wl.name} · seed {args.seed} · "
          f"{'traced' if traced else 'untraced'} · {seconds} s")
    print("# host " + " · ".join(f"{k} {v}" for k, v in host.items()))
    print(f"# why: {wl.why}")

    ref = RefClock()
    child = harness.python_argv("--setup-only", "--workload", wl.name,
                                "--seed", str(args.seed))
    setup = harness.measure_setup(
        child, 1 if traced else harness.SETUP_CHILDREN)
    tally = harness.RunTimings()
    workdir = make_workdir(wl.name)
    trace_doc: dict[str, Any] = {}
    try:
        wl.setup(args.seed, workdir, lambda: None)
        wl.prepare_checks(args.seed, expected)
        if traced:
            metrics, trace_doc = run_traced(wl, ref, tally, seconds, list(units))
            passes = trace_doc["passes"]
        else:
            timed = harness.run_passes(wl, ref, tally, seconds=seconds)
            passes = [vars(p) for p in timed]
            metrics = {
                "setup_s": statistics.median(t.norm_s for t in setup),
                "wall_s": statistics.median(p.norm_s for p in timed),
                "peak_rss_mb": harness.peak_rss_mb(),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref_s = statistics.median(ref.samples)
    if traced:
        metrics.update({
            "bench.ref_kernel_s": ref_s,
            "bench.host_speed": harness.refkernel.NOMINAL_S / ref_s,
            "bench.setup_raw_s": statistics.median(t.raw_s for t in setup),
            "bench.ops": tally.ops,
            "bench.ops_failed": len(tally.failures),
        })
        unknown = set(metrics) - set(units)
        if unknown:
            raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    print_metrics(metrics, units)
    if traced:
        path = harness.OUT / f"trace-{wl.name}.json"
        with open(path, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "host": host,
                       **trace_doc}, fh)
        for what in ("layer_shares", "replay_layer_shares"):
            if trace_doc[what]:
                print(f"# {what.replace('_', ' ')}: " + ", ".join(
                    f"{k} {v:.1%}" for k, v in trace_doc[what].items()
                    if k != "bench"))
        print(f"# trace written to {path.relative_to(harness.ROOT)}")
    else:
        print(f"# {len(passes)} passes, IQR/median "
              f"{harness.rel_iqr([p['norm_s'] for p in passes]):.3f}; raw "
              f"median {statistics.median(p['raw_s'] for p in passes):.4g} s; "
              f"host speed {harness.refkernel.NOMINAL_S / ref_s:.2f}")
        print(f"# throughput {wl.size / metrics['wall_s']:.6g} "
              f"{wl.size_unit}/s ({wl.size} {wl.size_unit} / wall_s, not gated)")
    for msg in tally.failures[:20]:
        print(f"# FAILED {msg}")
    print(f"# operations attempted {tally.ops}, failed {len(tally.failures)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({
                "workload": wl.name, "seed": args.seed, "traced": traced,
                "host": host, "ops": tally.ops, "failures": tally.failures,
                "metrics": {k: {"value": metrics[k], "unit": u}
                            for k, u in units.items()},
                "passes": passes,
                "setup": [vars(t) for t in setup],
            }, fh, indent=1)
    print(harness.result_line(tally.ops, tally.failures, metrics, units))
    return 0


# --------------------------------------------------------------------------
# every workload; A/A self-check; expected statistics
# --------------------------------------------------------------------------

def passthrough(args: argparse.Namespace) -> list[str]:
    extra = ["--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    return extra


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for w in harness.load_declaration()["workloads"]:
        proc = subprocess.run(harness.python_argv(
            "--workload", w["name"], *passthrough(args)))
        worst = max(worst, proc.returncode)
    return worst


def selfcheck(args: argparse.Namespace) -> int:
    """Interleaved A/A sets of the same code, judged as the driver judges
    a pair of commits."""
    decl = harness.load_declaration()
    names = [args.workload] if args.workload else [
        w["name"] for w in decl["workloads"]]
    values: dict[tuple[int, str, str], list[float]] = defaultdict(list)
    seed = args.seed
    for _ in range(args.runs):
        for s in range(args.sets):
            for name in names:
                seed += 1  # every run another seed, as the driver does
                proc = subprocess.run(
                    harness.python_argv(
                        "--workload", name, *passthrough(argparse.Namespace(
                            seed=seed, trace=0, seconds=args.seconds))),
                    check=True, capture_output=True, text=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                if result["failed"]:
                    print(f"{name} seed {seed}: {result['failed']} of "
                          f"{result['attempted']} operations failed")
                    return 1
                for metric, v in result["metrics"].items():
                    values[s, name, metric].append(v["value"])
    rc = 0
    print(f"{'workload':<14}{'metric':<13}{'set':>4}{'q1':>10}{'median':>10}"
          f"{'q3':>10}{'spread':>8}{'vs set 0':>10}{'bound':>7}")
    for name in names:
        for m in decl["end_to_end"]:
            base = statistics.median(values[0, name, m["name"]])
            for s in range(args.sets):
                v = values[s, name, m["name"]]
                q1, q2, q3 = harness.quartiles(v)
                spread = harness.rel_iqr(v)
                diff = abs(q2 - base) / base
                bad = diff > m["bound"] or (
                    m["name"] != "setup_s" and spread > m["bound"])
                rc |= bad
                print(f"{name:<14}{m['name']:<13}{s:>4}{q1:>10.4g}{q2:>10.4g}"
                      f"{q3:>10.4g}{spread:>8.3f}{diff:>10.3f}{m['bound']:>7}"
                      + ("  EXCEEDS" if bad else ""))
    return rc


def regen_expected(args: argparse.Namespace) -> int:
    """Seed-0 statistics from the oracle (object engine for N <= 48)."""
    import workloads

    doc = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        workdir = make_workdir(name)
        try:
            wl.setup(0, workdir, lambda: None)
            doc[name] = wl.oracle()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(doc[name])} entries")
    with open(EXPECTED_JSON, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long the timed passes run (default: "
                         "BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: traced run, per-layer metrics")
    ap.add_argument("--json", help="also write the full result here")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--selfcheck", action="store_true")
    mode.add_argument("--regen-expected", action="store_true")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.selfcheck:
        return selfcheck(args)
    if args.regen_expected:
        return regen_expected(args)
    if not args.workload:
        ap.error("--workload is required")
    return setup_only(args) if args.setup_only else measure(args)


if __name__ == "__main__":
    sys.exit(main())
