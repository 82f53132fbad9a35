"""Deterministic fault injection for the simulator and distributed runtimes.

A :class:`FaultPlan` is a seeded, immutable description of everything that
goes wrong during one execution:

* :class:`SlowdownWindow` — a per-node compute slowdown (straggler): tasks
  *starting* inside ``[start, end)`` on ``node`` take ``factor`` times
  longer (the distributed executor sleeps the difference after the
  kernel);
* :class:`LinkDegradation` — per-link bandwidth degradation: wire time of
  every quantum crossing a matching (src, dst) link inside the window is
  multiplied by ``factor``.  With a routed topology attached
  (``MachineSpec(topology=...)``) the hook fires per *physical hop*: the
  endpoints it sees are the directed edge's vertices (switch vertices
  included), so degrading edge (u, v) slows every route crossing it —
  not just the u→v message pair;
* ``loss_rate`` — transient transfer loss: a delivered message is dropped
  with probability ``loss_rate`` and retransmitted ``retransmit_timeout``
  seconds later (simulated time in the engines; recovered by the
  ack/retry machinery in the distributed executor);
* :class:`WorkerCrash` — fail-stop worker death: the node completes
  ``after_tasks`` of its tasks and then stops (the simulator raises a
  diagnostic :class:`SimulatedFailure`; the distributed worker process
  calls ``os._exit`` and the driver's liveness check reports it).

Determinism is the design constraint: the same plan produces *bit
identical* makespan / bytes / messages on both simulator engines
(``simulate`` and ``simulate_compiled`` — extended property tests in
``tests/test_failure_injection.py``).  Loss decisions therefore never
hash data keys (the engines represent them differently); instead each
link (src, dst) carries a deterministic attempt counter and the n-th
delivery attempt on a link is dropped iff ``mix(seed, src, dst, n)``
falls below the loss rate (:class:`LossState`).  Both engines process
deliveries in the same order, so the n-th attempt is the same message.
Under a routed topology the counters live on the route's directed
edges: every hop of a delivery rolls its own edge counter
(:meth:`repro.topology.CompiledTopology.roll_loss`) and the message is
lost when *any* hop drops — a lossy shared link affects every route
crossing it, and single-hop cliques reduce to the (src, dst) roll.

:class:`RetryPolicy` parameterizes the distributed executor's per-message
ack tracking: initial ack timeout, exponential backoff factor, and the
retry budget after which the sender gives up with a diagnostic error.

See ``docs/network-model.md`` ("Fault model") for the full semantics and
``benchmarks/bench_resilience.py`` for the SBC-vs-2DBC sensitivity sweep
this enables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SlowdownWindow",
    "LinkDegradation",
    "WorkerCrash",
    "RetryPolicy",
    "FaultPlan",
    "LossState",
    "SimulatedFailure",
]


class SimulatedFailure(RuntimeError):
    """A fault plan killed the simulated execution (worker crash)."""


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _fold(x: int, v: int) -> int:
    """One splitmix64-style round folding the integer ``v`` into state ``x``."""
    x = (x ^ ((v + _GOLDEN) & _M64)) & _M64
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 27)


@dataclass(frozen=True)
class SlowdownWindow:
    """Compute straggler: tasks starting in [start, end) on ``node`` run
    ``factor`` times slower."""

    node: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.end < self.start:
            raise ValueError(f"window ends ({self.end}) before it starts ({self.start})")


@dataclass(frozen=True)
class LinkDegradation:
    """Bandwidth degradation: wire time on matching links is multiplied by
    ``factor`` inside [start, end).  ``src``/``dst`` of -1 match any node.

    With a routed topology the match is evaluated against each directed
    edge a quantum traverses (endpoints may be switch vertices, i.e.
    ids >= ``num_nodes``), so (src, dst) names a physical topology edge
    rather than a message's (source, destination) pair."""

    factor: float
    src: int = -1
    dst: int = -1
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {self.factor}")
        if self.end < self.start:
            raise ValueError(f"window ends ({self.end}) before it starts ({self.start})")


@dataclass(frozen=True)
class WorkerCrash:
    """Fail-stop death of ``node`` after it completes ``after_tasks`` of
    its own tasks (tasks already running finish; nothing new starts)."""

    node: int
    after_tasks: int

    def __post_init__(self) -> None:
        if self.after_tasks < 0:
            raise ValueError(f"after_tasks must be >= 0, got {self.after_tasks}")


@dataclass(frozen=True)
class RetryPolicy:
    """Ack timeout + exponential backoff of the distributed executor.

    A data message unacknowledged for ``timeout * backoff**attempt``
    seconds is retransmitted; after ``max_retries`` retransmissions the
    sender raises a diagnostic error instead of wedging forever.
    """

    timeout: float = 0.5
    backoff: float = 2.0
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"ack timeout must be positive, got {self.timeout}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def delay(self, attempt: int) -> float:
        """Ack deadline for the ``attempt``-th transmission (0 = first)."""
        return self.timeout * self.backoff ** attempt


class LossState:
    """Per-run mutable loss counters; see the module docstring for why
    decisions hash (seed, src, dst, attempt-index) and nothing else; the
    state after (seed, src, dst) is folded once per pair."""

    __slots__ = ("_seed", "_rate", "_counts", "_states")

    def __init__(self, seed: int, rate: float):
        self._seed = seed
        self._rate = rate
        self._counts: dict[tuple[int, int], int] = {}
        self._states: dict[tuple[int, int], int] = {}

    def lost(self, src: int, dst: int) -> bool:
        """Decide the fate of the next delivery attempt on (src, dst)."""
        key = (src, dst)
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        if self._rate <= 0.0:
            return False
        x = self._states.get(key)
        if x is None:
            x = self._states[key] = _fold(_fold(_fold(_GOLDEN, self._seed), src), dst)
        return _fold(x, n) / 2.0 ** 64 < self._rate


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, immutable description of the faults of one execution."""

    seed: int = 0
    slowdowns: tuple[SlowdownWindow, ...] = ()
    links: tuple[LinkDegradation, ...] = ()
    loss_rate: float = 0.0
    retransmit_timeout: float = 1e-3
    crashes: tuple[WorkerCrash, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.retransmit_timeout <= 0:
            raise ValueError(
                f"retransmit_timeout must be positive, got {self.retransmit_timeout}"
            )
        seen = set()
        for c in self.crashes:
            if c.node in seen:
                raise ValueError(f"node {c.node} has more than one crash fault")
            seen.add(c.node)
        # Tolerate lists passed by callers: freeze to tuples.
        object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # -- queries --------------------------------------------------------------

    def compute_factor(self, node: int, time: float) -> float:
        """Duration multiplier for a task starting at ``time`` on ``node``."""
        f = 1.0
        for w in self.slowdowns:
            if w.node == node and w.start <= time < w.end:
                f *= w.factor
        return f

    def link_factor(self, src: int, dst: int, time: float) -> float:
        """Wire-time multiplier for a quantum served at ``time`` on (src, dst)."""
        f = 1.0
        for d in self.links:
            if (d.src in (-1, src) and d.dst in (-1, dst)
                    and d.start <= time < d.end):
                f *= d.factor
        return f

    def crash_after(self, node: int) -> Optional[int]:
        """Task count after which ``node`` fail-stops, or None."""
        for c in self.crashes:
            if c.node == node:
                return c.after_tasks
        return None

    def loss_state(self) -> Optional[LossState]:
        """Fresh per-run loss counters (None when loss is disabled)."""
        if self.loss_rate <= 0.0:
            return None
        return LossState(self.seed, self.loss_rate)
