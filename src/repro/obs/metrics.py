"""Metrics registry: labelled counters, gauges and histograms.

A deliberately small, dependency-free subset of the Prometheus data
model.  Each metric holds a map from a label tuple to a value, so one
``Counter`` named ``net.bytes`` can carry every ``(src, dst)`` pair of a
run; the un-labelled value uses the empty tuple.  ``MetricsRegistry``
is the namespace runtimes write into (usually through a
:class:`repro.obs.Recorder`) and exposes ``as_dict()`` for machine
consumption and ``summary()`` for humans.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from typing import Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Labels = tuple


def _labels(labels) -> Labels:
    if labels is None:
        return ()
    if isinstance(labels, tuple):
        return labels
    return (labels,)


class Counter:
    """Monotonically increasing sum, one value per label tuple."""

    kind = "counter"
    __slots__ = ("name", "help", "values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.values: dict[Labels, float] = {}

    def inc(self, amount: float = 1.0, labels=None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        key = _labels(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, labels=None) -> float:
        return self.values.get(_labels(labels), 0.0)

    def total(self) -> float:
        return sum(self.values.values())


class Gauge:
    """Point-in-time value, one per label tuple (with a max helper)."""

    kind = "gauge"
    __slots__ = ("name", "help", "values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.values: dict[Labels, float] = {}

    def set(self, value: float, labels=None) -> None:
        self.values[_labels(labels)] = value

    def set_max(self, value: float, labels=None) -> None:
        """Keep the running maximum (handy for queue depths, peak memory)."""
        key = _labels(labels)
        if value > self.values.get(key, float("-inf")):
            self.values[key] = value

    def value(self, labels=None) -> float:
        return self.values.get(_labels(labels), 0.0)


#: Default histogram buckets: powers of four spanning nanoseconds to
#: gigaunits — wide enough for byte sizes and sub-second latencies alike.
DEFAULT_BUCKETS = tuple(4.0 ** k for k in range(-15, 16))


class Histogram:
    """Cumulative-bucket histogram of observed samples (un-labelled)."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket boundary")
        # counts[i] = samples <= buckets[i]; one overflow slot at the end.
        self.counts: list[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.observe_all((value,))

    def observe_all(self, values: Iterable[float]) -> None:
        """``observe`` each value in order (the sum is accumulated in that
        order, so it equals the one-at-a-time sum bit for bit)."""
        counts, buckets = self.counts, self.buckets
        count, total, lo, hi = self.count, self.sum, self.min, self.max
        for value in values:
            # First bucket boundary >= value; the overflow slot past the end.
            counts[bisect_left(buckets, value)] += 1
            count += 1
            total += value
            lo = value if value < lo else lo
            hi = value if value > hi else hi
        self.count, self.sum, self.min, self.max = count, total, lo, hi

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket boundary containing the q-quantile (0 <= q <= 1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        acc = 0
        for i, c in enumerate(self.counts):
            acc += c
            if acc >= target:
                return self.buckets[i] if i < len(self.buckets) else self.max
        return self.max


class MetricsRegistry:
    """Named metrics namespace with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, **kwargs)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(m).__name__}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        m = self._metrics.get(name)  # once registered, one dict read per count
        return m if type(m) is Counter else self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable:
        return iter(self._metrics.values())

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly dump: label tuples become '|'-joined strings."""
        out: dict[str, object] = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram):
                out[name] = {
                    "kind": m.kind,
                    "count": m.count,
                    "sum": m.sum,
                    "mean": m.mean,
                    "min": m.min if m.count else None,
                    "max": m.max if m.count else None,
                }
            else:
                out[name] = {
                    "kind": m.kind,
                    "values": {
                        "|".join(str(p) for p in k) if k else "": v
                        for k, v in sorted(m.values.items(), key=lambda kv: str(kv[0]))
                    },
                }
        return out

    def summary(self) -> str:
        """Human-readable table, one line per metric (totals + extremes)."""
        lines = [f"{'metric':<28} {'kind':<9} {'value':>14}  detail"]
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                detail = ""
                if len(m.values) > 1:
                    top = max(m.values.items(), key=lambda kv: kv[1])
                    detail = f"{len(m.values)} series, max {top[0]}={top[1]:g}"
                lines.append(f"{name:<28} {m.kind:<9} {m.total():>14g}  {detail}")
            elif isinstance(m, Gauge):
                detail = f"{len(m.values)} series" if len(m.values) > 1 else ""
                peak = max(m.values.values()) if m.values else 0.0
                lines.append(f"{name:<28} {m.kind:<9} {peak:>14g}  {detail}")
            else:  # Histogram
                detail = (f"n={m.count} mean={m.mean:g} "
                          f"p90<={m.quantile(0.9):g} max={m.max:g}"
                          if m.count else "empty")
                lines.append(f"{name:<28} {m.kind:<9} {m.sum:>14g}  {detail}")
        return "\n".join(lines)
