"""Asyncio sweep server: dedup, memoize, shard, stream.

:class:`SweepServer` is the service core (the HTTP front-end in
:mod:`repro.service.http` and the CLI are thin wrappers over it).  One
``submit()`` walks the pipeline::

    config digest -> structure-key memo -> point hash -> store   (lookup)
      -> join in-flight duplicate, if any                        (dedup)
      -> dispatch run_point to the worker executor               (simulate)
      -> persist record, resolve every joined waiter

* **Memoization** keys on the content hash of
  :mod:`repro.service.hashing`; hits are re-verified by comparing the
  stored spec's canonical form (hash collisions aside, this catches
  hand-edited stores).  That step, :meth:`SweepServer.lookup`, is synchronous:
  the in-process client enters the event loop only for misses.
* **Dedup** keys on the config digest, which is computable without
  building the graph, so N clients submitting the same point while it
  runs all await one simulation.
* **Sharding** uses a ``ProcessPoolExecutor`` when ``workers > 0``
  (independent sweep points are embarrassingly parallel); ``workers=0``
  runs points on the default thread executor — simulation releases
  little of the GIL, but submission stays async and tests stay
  single-process.
* **Streaming**: every lifecycle transition is pushed to subscriber
  queues as a :class:`SweepEvent` and counted in the server's
  ``repro.obs`` :class:`~repro.obs.metrics.MetricsRegistry` — the
  ``service.simulations`` counter is the ground truth the cache tests
  assert on (a cache hit or dedup join never increments it).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, fields
from collections.abc import Sequence
from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from .hashing import config_digest, point_hash, structure_key
from .jobs import JobSpec
from .runner import report_from_dict, run_point
from .store import ResultStore

__all__ = ["SweepEvent", "JobResult", "SweepServer"]

#: Lifecycle ops a job can emit, in order of appearance.
EVENT_OPS = ("submitted", "dedup", "cache-hit", "started", "completed",
             "failed")


@dataclass(frozen=True)
class SweepEvent:
    """One job lifecycle transition, streamed to subscribers."""

    op: str  # one of EVENT_OPS
    key: str  # config digest of the point
    time: float  # wall-clock seconds (time.monotonic reference)
    detail: str = ""


@dataclass
class JobResult:
    """Outcome of one submitted point (see ``docs/service.md``)."""

    hash: str
    spec: JobSpec
    status: str  # "ok" | "failed"
    cached: bool  # True when no new simulation ran for this submit
    report: Optional[Any]  # SimReport (None on failed runs)
    timings: dict[str, float]
    metrics: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    #: RSS high-water mark (MiB) of the worker that simulated the point —
    #: measured inside :func:`repro.service.runner.run_point`, so it is
    #: meaningful even when points run in executor processes.  None for
    #: records stored before this field existed.
    peak_rss_mb: Optional[float] = None
    #: True when the worker reused its cached compiled graph for this
    #: point (incremental re-simulation) instead of rebuilding.
    graph_reused: bool = False

    def raise_for_status(self) -> JobResult:
        if self.status != "ok":
            raise RuntimeError(f"sweep point failed: {self.error}")
        return self


#: What a stored record says of a :class:`JobResult`; ``spec`` and
#: ``cached`` belong to the submit (a record's ``"spec"`` is the plain dict).
_RECORD_KEYS = tuple(f.name for f in fields(JobResult)
                     if f.name not in ("spec", "cached"))


def _result_from_record(spec: JobSpec, record: dict[str, Any],
                        cached: bool) -> JobResult:
    """A key an old record lacks keeps the field's default."""
    got = {key: record[key] for key in _RECORD_KEYS if key in record}
    report = got.get("report")
    got["report"] = None if report is None else report_from_dict(report)
    got["timings"] = dict(got.get("timings", {}))
    return JobResult(spec=spec, cached=cached, **got)


class SweepServer:
    """Long-running job server over one :class:`ResultStore`."""

    def __init__(
        self,
        store: ResultStore,
        workers: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._inflight: dict[str, asyncio.Future[dict[str, Any]]] = {}
        self._subscribers: list[asyncio.Queue[SweepEvent]] = []
        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers) if workers > 0 else None
        )
        # Store appends fsync; a dedicated single-thread executor keeps
        # that disk wait off the event loop (concurrent submits and the
        # HTTP front-end stay responsive) while preserving the store's
        # single-writer contract — one thread, appends in submit order.
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="sweep-store-io")
        self._t0 = time.monotonic()

    # -- events --------------------------------------------------------------

    def subscribe(self, maxsize: int = 0) -> asyncio.Queue[SweepEvent]:
        """A queue receiving every :class:`SweepEvent` from now on.

        ``maxsize`` bounds the queue (0 = unbounded, the historical
        behaviour).  A bounded queue sheds load with drop-*oldest*
        semantics: when a slow consumer falls ``maxsize`` events behind,
        the oldest pending event is discarded to admit the new one —
        stalled HTTP streamers see a gap, not unbounded server memory.
        Dropped events are counted in the ``service.events.dropped``
        metric.
        """
        q: asyncio.Queue[SweepEvent] = asyncio.Queue(maxsize=maxsize)
        self._subscribers.append(q)
        return q

    def unsubscribe(self, q: asyncio.Queue[SweepEvent]) -> None:
        if q in self._subscribers:
            self._subscribers.remove(q)

    def _emit(self, op: str, key: str, detail: object = "") -> None:
        """Count one event; build it (``str(detail)``) only for a listener."""
        self.metrics.counter("service.events", "job lifecycle events per op") \
            .inc(labels=(op,))
        if not self._subscribers:
            return
        ev = SweepEvent(op, key, time.monotonic() - self._t0, str(detail))
        for q in self._subscribers:
            try:
                q.put_nowait(ev)
            except asyncio.QueueFull:
                # Drop-oldest: make room, then retry once.  Everything
                # here runs on the event loop, so get/put cannot race a
                # consumer mid-sequence.
                try:
                    q.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - maxsize=0
                    pass
                try:
                    q.put_nowait(ev)
                except asyncio.QueueFull:  # pragma: no cover - defensive
                    pass
                self.metrics.counter(
                    "service.events.dropped",
                    "subscriber events shed by bounded queues (drop-oldest)",
                ).inc(labels=(op,))

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, help_: str) -> None:
        self.metrics.counter(name, help_).inc()

    def simulations(self) -> int:
        """Simulations actually executed by this server (not cache hits)."""
        c = self.metrics.get("service.simulations")
        return int(c.total()) if c is not None else 0

    # -- the pipeline --------------------------------------------------------

    def _stored(self, spec: JobSpec, ckey: str) -> Optional[dict[str, Any]]:
        """Store lookup via the structure-hash memo; None on any miss."""
        struct = self.store.get_structure(structure_key(spec))
        if struct is None:
            return None
        record = self.store.get(point_hash(struct, ckey))
        # Paranoia over hand-edited stores: the cached spec must be the
        # very spec we were asked about.
        if record is None or record.get("spec") != spec._plain:
            return None
        return record

    def lookup(self, spec: JobSpec) -> Optional[JobResult]:
        """A stored point's whole submit, synchronously (counted; streamed as
        ``submitted``, ``cache-hit``); None on a miss, which counts nothing."""
        ckey = config_digest(spec)
        record = self._stored(spec, ckey)
        if record is None:
            return None
        self._count("service.jobs", "points submitted")
        self._emit("submitted", ckey, spec)
        self._count("service.cache.hits", "points served from the store")
        self._emit("cache-hit", ckey)
        return _result_from_record(spec, record, cached=True)

    async def submit(self, spec: JobSpec) -> JobResult:
        """Resolve one point: cache, then dedup, then simulate + persist."""
        # 1. memoized result?
        hit = self.lookup(spec)
        if hit is not None:
            return hit
        ckey = config_digest(spec)
        self._count("service.jobs", "points submitted")
        self._emit("submitted", ckey, spec)

        # 2. join an identical in-flight point (registered synchronously
        #    below, before any await — concurrent submits cannot race past
        #    this check in one event loop).
        pending = self._inflight.get(ckey)
        if pending is not None:
            self._count("service.dedup.joined", "submits joined in-flight work")
            self._emit("dedup", ckey)
            record = await asyncio.shield(pending)
            return _result_from_record(spec, record, cached=True)
        self._count("service.cache.misses", "points not found in the store")

        # 3. simulate on the worker executor.
        loop = asyncio.get_running_loop()
        future: asyncio.Future[dict[str, Any]] = loop.create_future()
        self._inflight[ckey] = future
        self._emit("started", ckey)
        try:
            record = await loop.run_in_executor(
                self._pool, run_point, spec.to_dict()
            )
            self._count("service.simulations", "simulations actually executed")
            if record["status"] != "ok":
                self._count("service.failures", "deterministically failed points")
            await loop.run_in_executor(
                self._io, self._persist, structure_key(spec), record
            )
            self._emit("completed" if record["status"] == "ok" else "failed",
                       ckey, record.get("error") or "")
            future.set_result(record)
        except BaseException as exc:
            future.set_exception(exc)
            # Joined waiters observe the exception through the shield;
            # quiet the "exception never retrieved" warning for our copy.
            future.exception()
            self._emit("failed", ckey, repr(exc))
            raise
        finally:
            del self._inflight[ckey]
        return _result_from_record(spec, record, cached=False)

    def _persist(self, skey: str, record: dict[str, Any]) -> None:
        """Append one record + its structure memo (runs on ``self._io``)."""
        self.store.put_structure(skey, record["structure"])
        self.store.put(record)

    async def sweep(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Submit many points concurrently; results in input order.

        One point raising (a bad spec, an executor crash) must not
        discard every other point's result, so per-point exceptions are
        captured and surfaced as ``status="failed"`` results with an
        empty hash (nothing was simulated or stored for them).
        Cancellation still propagates: cancelling the sweep cancels
        every point.
        """
        outcomes = await asyncio.gather(
            *(self.submit(s) for s in specs), return_exceptions=True
        )
        results: list[JobResult] = []
        for spec, out in zip(specs, outcomes):
            if isinstance(out, BaseException):
                if not isinstance(out, Exception):
                    raise out  # CancelledError / KeyboardInterrupt / ...
                self._count("service.sweep.errors",
                            "sweep points lost to raised exceptions")
                results.append(JobResult(
                    hash="", spec=spec, status="failed", cached=False,
                    report=None, timings={},
                    error=f"{type(out).__name__}: {out}",
                ))
            else:
                results.append(out)
        return results

    def status(self, spec: JobSpec) -> str:
        """'cached' | 'running' | 'unknown' for one point."""
        ckey = config_digest(spec)
        if ckey in self._inflight:
            return "running"
        if self._stored(spec, ckey) is not None:
            return "cached"
        return "unknown"

    def result_by_hash(self, point: str) -> Optional[dict[str, Any]]:
        """Raw stored record for a point hash (None when absent)."""
        return self.store.get(point)

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._io.shutdown(wait=True)
