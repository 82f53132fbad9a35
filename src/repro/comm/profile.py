"""Per-iteration communication and intensity profiles.

§III-E explains the 2/3 factor between the first-iteration arithmetic
intensity (sqrt(M)) and the whole-run average: the trailing matrix
shrinks, so later iterations move (relatively) more data per flop.  These
helpers expose that structure measurably: the communication volume, flop
count, and intensity of each iteration of a task graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..graph.compiled import CompiledGraph
from ..graph.task import TaskGraph
from .counter import bytes_by, plan_messages

__all__ = ["IterationProfile", "communication_profile"]


@dataclass(frozen=True)
class IterationProfile:
    """Traffic and work of one iteration (outer panel index)."""

    iteration: int
    messages: int
    bytes: int
    flops: float

    @property
    def intensity(self) -> float:
        """Flops per transferred byte (``inf`` for communication-free ones)."""
        if self.bytes == 0:
            return float("inf")
        return self.flops / self.bytes


def communication_profile(
        graph: Union[TaskGraph, CompiledGraph]) -> list[IterationProfile]:
    """Exact per-iteration traffic of a task graph.

    A transfer is attributed to the iteration of the (first) consuming
    task, matching when the runtime actually needs the data on the wire.
    The totals equal :func:`repro.comm.count_communications` by
    construction; the per-iteration flop counts sum to the graph's total.
    """
    cg, _plan, nbytes, first = plan_messages(graph)
    iterations, slot = np.unique(cg.iteration, return_inverse=True)
    flops = np.bincount(slot, weights=cg.flops, minlength=len(iterations))
    messages = np.bincount(slot[first], minlength=len(iterations))
    volume = bytes_by(slot[first], nbytes)
    return [IterationProfile(it, int(messages[s]), volume.get(s, 0),
                             float(flops[s]))
            for s, it in enumerate(iterations.tolist())]
