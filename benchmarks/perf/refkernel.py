"""Frozen reference kernel: the benchmark's ruler.  DO NOT EDIT.

A fixed amount of pure-Python work whose wall time tracks how fast this
host runs interpreter-, heap- and scattered-memory-bound code right now
(the same mix as the simulator's serve loop and the service's hit path):
LCG-indexed reads of a 32 MiB ``array('q')`` through a ``memoryview``
plus ``heappush``/``heappop`` of tuples.  The harness runs one *slice*
(:data:`ITERS` iterations, :data:`NOMINAL_S` seconds on the reference
host) every ~10 ms of workload time and reports workload seconds as
multiples of it.

The SHA-256 of this file is pinned in ``harness.REFKERNEL_SHA256`` and
``run.py`` refuses to report when it differs: a change that makes the
ruler faster would make every workload look slower, and the other way
round.  It never imports ``repro``.
"""

from array import array
from heapq import heappop, heappush

N_WORDS = 1 << 22  # 4 Mi int64 = 32 MiB, well past a core's private caches
ITERS = 2_500
#: Seconds one slice takes, interleaved with a workload, on the host the
#: benchmark was sized on.
NOMINAL_S = 0.002
#: ``run(make_table())`` must return this (guards the arithmetic).
CHECKSUM = 767010


def make_table():
    """The 32 MiB table; every page is really written (no shared zero page)."""
    return memoryview(array("q", range(1 << 10)) * (N_WORDS >> 10))


def run(table, iters=ITERS):
    mask = N_WORDS - 1
    x = 12345
    heap = []
    acc = 0
    for i in range(iters):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        v = table[(x >> 33) & mask]
        heappush(heap, (v ^ i, i))
        if i & 1:
            acc += heappop(heap)[0]
    return acc
