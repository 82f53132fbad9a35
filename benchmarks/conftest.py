"""Shared configuration for the benchmark suite.

Every bench regenerates one table or figure of the paper: it prints the
same rows/series the paper reports (scaled to simulation-tractable sizes
unless ``REPRO_FULL=1``) and registers one representative timing with
pytest-benchmark.

The simulated platform is the paper's *bora* cluster; see
``repro.config.bora`` for the constants and DESIGN.md for the calibration
discussion (effective per-node MPI bandwidth below wire speed).

Every simulated POTRF point of the suite is a ``JobSpec`` submitted
through the one ``sweep_client`` below, so a cell that two figures share
is simulated once per session — and never again on a store that
``REPRO_SWEEP_STORE`` keeps between sessions.
"""

from __future__ import annotations

import os

import pytest

#: Full-scale mode reproduces the paper's matrix sizes where tractable.
FULL = os.environ.get("REPRO_FULL", "0") == "1"


def sizes(small, full):
    """Pick the N-tile sweep depending on REPRO_FULL."""
    return full if FULL else small


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark.

    The benches are deterministic simulations/counters — statistical
    repetition would only waste the suite's time budget.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture(scope="session")
def sweep_client():
    """The session's one sweep client, on ``$REPRO_SWEEP_STORE`` when that
    is set and otherwise on a temp store it removes when the session ends."""
    # Imported here: `pytest benchmarks/perf` loads this file before src/ is on the path.
    from repro.service import SweepClient

    with SweepClient() as client:
        yield client
        print(f"\n(sweep client: {client.simulations_run()} simulations this session)")


def print_header(title: str, columns: str) -> None:
    print(f"\n=== {title} ===")
    print(columns)
