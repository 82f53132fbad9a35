"""Measuring machinery of the perf benchmark (see README.md).

Nothing here knows a workload: this module holds the statistics, the
host-speed normalisation against the frozen reference kernel, the span
tracer and the timed-pass / set-up loops that ``run.py`` drives.  It
never imports ``repro``.

Timing method in one paragraph: the sandbox's speed wanders by +-30 %
with a correlation time of about half a second, so raw seconds are
useless and a reference sample taken before and after a one-second
pass has already lost the host state the pass ran in.  The harness
therefore interleaves the ruler with the work: every ~10 ms of a timed
pass it runs one ~2 ms *slice* of the reference kernel — at a ``yield``
of the pass generator when one comes in time, otherwise from an
interval-timer signal that cuts into calls the harness cannot divide.
A pass costs its wall time minus its slices, multiplied by the mean
host speed its slices saw; a run reports the median pass — seconds on a
reference-speed host.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import refkernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: SHA-256 of ``refkernel.py``; ``run.py`` refuses to report on a mismatch.
REFKERNEL_SHA256 = "06607d597408e487553865667200e58ee4c71cf646367bb6a101d7996eb6d07c"

#: Fresh child interpreters timed for ``setup_s`` (median reported).
SETUP_CHILDREN = 3
#: Workload seconds between two reference slices.  Sizing (README,
#: "Noise"): a slice every 10 ms cut the spread of identical ~1 s passes
#: from 11-28 % (one sample before, one after) to 3-8 %; every 20 ms was
#: worse, every 3-6 ms no better, and a slice costs ~2 ms.
GAP_S = 0.010
#: The fewest traced passes of a traced run, and timed passes of any run.
TRACED_PASSES = 3
MIN_PASSES = 3

Clock = Callable[[], float]


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


#: Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def top_percentile(n_samples: int) -> float:
    """The highest of :data:`PERCENTILES` with at least ten samples beyond it."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n_samples * (100.0 - p) / 100.0 >= 10.0:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100)."""
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))  # ceil without floats drifting
    return s[int(rank) - 1]


# --------------------------------------------------------------------------
# host-speed normalisation
# --------------------------------------------------------------------------

def refkernel_sha256() -> str:
    return hashlib.sha256((HERE / "refkernel.py").read_bytes()).hexdigest()


#: Name of the span a traced pass records around every reference slice
#: (a child of whatever layer span the slice cut into, so that self
#: times exclude it).
REF_SPAN = "bench.ref"


class RefClock:
    """Times slices of the frozen reference kernel, interleaved with the
    work being measured.

    ``start()`` opens an interval and ``stop()`` closes it; both take a
    slice, so an interval holds at least two.  In between, ``tick()``
    (called at every ``yield`` of a pass) takes one when :data:`GAP_S`
    have gone by since the last, and while the timer is set an interval
    timer does the same from a signal handler.  The timer is only for
    work that runs in the main thread, where Python delivers signals: a
    slice taken while another thread computes would time the two of
    them fighting for the interpreter lock.
    """

    def __init__(self, clock: Clock = time.perf_counter,
                 kernel: Optional[Callable[[], int]] = None) -> None:
        self.clock = clock
        if kernel is None:
            table = refkernel.make_table()
            kernel = lambda: refkernel.run(table)  # noqa: E731
        self._kernel = kernel
        #: every slice timed so far (seconds)
        self.samples: list[float] = []
        self._tracer: Any = None
        self._first = 0  # index in ``samples`` of the open interval's first slice
        self._t0 = 0.0  # when the open interval began
        self._last = 0.0  # when the latest slice ended
        self._armed = False
        self._busy = False

    def slice(self) -> None:
        """Run and time one slice."""
        self._busy = True  # a timer signal landing in here must not nest
        t0 = self.clock()
        acc = self._kernel()
        t1 = self.clock()
        if acc != refkernel.CHECKSUM:
            raise RuntimeError(
                f"reference kernel returned {acc}, expected {refkernel.CHECKSUM}")
        self.samples.append(t1 - t0)
        self._last = t1
        if self._tracer is not None:
            self._tracer.record(REF_SPAN, t0, t1)
        self._busy = False

    def _on_timer(self, signum: int, frame: object) -> None:
        if self._armed and not self._busy:
            self.slice()
            signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def set_timer(self, on: bool) -> None:
        """Let the timer signal take slices, or stop it doing so."""
        if on and not self._armed:
            signal.signal(signal.SIGALRM, self._on_timer)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, GAP_S)
        elif not on and self._armed:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def start(self, tr: Any = None, timer: bool = False) -> None:
        self._tracer = tr if tr is not None and tr.on else None
        self._first = len(self.samples)
        self._t0 = self.clock()
        self.slice()
        self.set_timer(timer)

    def tick(self) -> None:
        if self.clock() - self._last >= GAP_S:
            self.slice()
            if self._armed:
                signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def stop(self) -> Timing:
        """Close the interval: its wall time runs from before the first
        slice to after the last, and the work is what the slices left."""
        self.set_timer(False)
        self.slice()
        self._tracer = None
        slices = self.samples[self._first:]
        return timing(self._last - self._t0 - sum(slices), slices)


@dataclass
class Timing:
    raw_s: float  # wall seconds of the work, reference slices excluded
    norm_s: float  # the same work in reference-host seconds
    slices: list[float]  # seconds of each reference slice it was normalised by


def timing(work_s: float, slices: list[float]) -> Timing:
    """``work_s`` wall seconds of work in reference-host seconds.

    ``slices`` are the durations of the reference slices interleaved
    with that work.  A slice of ``h`` seconds saw a host running at
    ``NOMINAL_S / h`` of the reference speed; the work got done at the
    mean of those speeds.
    """
    if not slices:
        raise ValueError("need at least one reference slice")
    speed = statistics.fmean(refkernel.NOMINAL_S / h for h in slices)
    return Timing(work_s, work_s * speed, slices)


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span in the trace, -1 at top level
    pass_id: int


class _SpanCtx:
    __slots__ = ("_tr", "_idx")

    def __init__(self, tr: Tracer, idx: int) -> None:
        self._tr = tr
        self._idx = idx

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        tr = self._tr
        tr.spans[self._idx].end = tr.clock()
        tr._open.pop()


class Tracer:
    """In-memory span recorder; written out once, when the run ends."""

    on = True

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.pass_id = -1
        self._open: list[int] = []

    def span(self, name: str) -> _SpanCtx:
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self._open.append(idx)
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.pass_id))
        return _SpanCtx(self, idx)

    def record(self, name: str, start: float, end: float) -> None:
        """A span that is already over, caused by the innermost open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, self.pass_id))


class _NullCtx:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


class NullTracer:
    """What untraced passes get: ``span()`` costs one attribute lookup."""

    on = False
    _ctx = _NullCtx()

    def span(self, name: str) -> _NullCtx:
        return self._ctx


def self_times(spans: Sequence[Span]) -> dict[int, dict[str, float]]:
    """Per pass id, per span name: summed self time.

    A span's self time is its duration minus the durations of the spans
    it directly caused.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, c in zip(spans, child_time):
        out[s.pass_id][s.name] += (s.end - s.start) - c
    return out


# --------------------------------------------------------------------------
# timed passes
# --------------------------------------------------------------------------

#: Name of the span the harness opens around a traced pass; its self
#: time is work no layer span covers.
PASS_SPAN = "bench.pass"


def timed_pass(segments: Iterator[None], ref: RefClock, tr: Any,
               timer: bool) -> Timing:
    """Drive one pass generator to its end, reference slices interleaved."""
    ref.start(tr, timer)
    with tr.span(PASS_SPAN):
        for _ in segments:
            ref.tick()
    return ref.stop()


@dataclass
class RunTimings:
    """Operations attempted and the failed ones, over every pass run."""

    ops: int = 0
    failures: list[str] = field(default_factory=list)


def run_passes(workload: Any, ref: RefClock, timings: RunTimings, *,
               seconds: float = 0.0, count: int = 0,
               tr: Any = NullTracer()) -> list[Timing]:
    """Timed passes until ``seconds`` have gone by (at least
    :data:`MIN_PASSES`), or exactly ``count`` of them.  Every pass's
    outputs are checked outside the timed region and accounted in
    ``timings``; the passes of this call are returned."""
    deadline = time.perf_counter() + seconds
    passes: list[Timing] = []
    while (len(passes) < count) if count else (
            len(passes) < MIN_PASSES or time.perf_counter() < deadline):
        gc.collect()
        out: list[Any] = []
        if tr.on:
            tr.pass_id += 1
        passes.append(
            timed_pass(workload.run_pass(tr, out), ref, tr, workload.timer))
        ops, failures = workload.check(out)
        timings.ops += ops
        timings.failures += failures
    return passes


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def measure_setup(argv: Sequence[str], children: int) -> list[Timing]:
    """Time ``children`` fresh interpreters running ``argv`` (import,
    build inputs, first cold pass).  A child interleaves reference
    slices with its own work, as a timed pass does, and prints their
    durations as its last line; its wall time, as seen from here and
    the slices taken out, is normalised by them."""
    out: list[Timing] = []
    for _ in range(children):
        t0 = time.perf_counter()
        proc = subprocess.run(list(argv), capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        slices = json.loads(proc.stdout.splitlines()[-1])
        out.append(timing(wall - sum(slices), slices))
    return out


# --------------------------------------------------------------------------
# host fingerprint, benchmark declaration
# --------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """``ru_maxrss`` of this interpreter in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict[str, Any]:
    import numpy

    jit = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": "auto->" + ("jit" if jit else "numpy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git": _git_sha(),
        "refkernel_sha256": REFKERNEL_SHA256,
    }


def load_declaration() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds printed."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def result_line(ops: int, failures: Sequence[str],
                metrics: dict[str, float], units: dict[str, str]) -> str:
    """The contract's last stdout line."""
    return json.dumps({
        "correct": not failures,
        "attempted": max(1, ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def python_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), *args]
