"""Asyncio sweep server: dedup, memoize, shard, count.

:class:`SweepServer` is the service core (the HTTP front-end in
:mod:`repro.service.http` and the CLI are thin wrappers over it).  One
``submit()`` walks the pipeline::

    config digest -> store                                 (lookup)
      -> join in-flight duplicate, if any                  (dedup)
      -> dispatch run_point to the worker executor         (simulate)
      -> persist record, resolve every joined waiter

* **Memoization** keys on the config digest of
  :mod:`repro.service.hashing`, the address the store files each record
  under (computed from the record's own spec).  That step,
  :meth:`SweepServer.lookup`, is synchronous: the in-process client
  enters the event loop only for misses.
* **Dedup** keys on the same digest, which is computable without
  building the graph, so N clients submitting the same point while it
  runs all await one simulation.
* **Sharding** uses a ``ProcessPoolExecutor`` when ``workers > 0``
  (independent sweep points are embarrassingly parallel); ``workers=0``
  runs points on the default thread executor — simulation releases
  little of the GIL, but submission stays async and tests stay
  single-process.
* **Counting**: every lifecycle transition increments one counter of the
  server's ``repro.obs`` :class:`~repro.obs.metrics.MetricsRegistry` —
  the ``service.simulations`` counter is the ground truth the cache tests
  assert on (a cache hit or dedup join never increments it).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, fields
from collections.abc import Sequence
from typing import Any, Optional

from ..obs.metrics import MetricsRegistry
from .hashing import config_digest
from .jobs import JobSpec
from .runner import graph_memo, report_from_dict, run_point
from .store import ResultStore

__all__ = ["JobResult", "SweepServer"]


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
    #: True when the worker did not build this point's DAG: it held the
    #: DAG (placed for this layout, or already placed by an earlier
    #: point), or another point was building it and this one waited.
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
        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers) if workers > 0 else None
        )
        # Store appends fsync; a dedicated single-thread executor keeps
        # that disk wait off the event loop (concurrent submits and the
        # HTTP front-end stay responsive) while preserving the store's
        # single-writer contract — one thread, appends in submit order.
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="sweep-store-io")

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, help_: str) -> None:
        self.metrics.counter(name, help_).inc()

    def simulations(self) -> int:
        """Simulations actually executed by this server (not cache hits)."""
        c = self.metrics.get("service.simulations")
        return int(c.total()) if c is not None else 0

    # -- the pipeline --------------------------------------------------------

    def lookup(self, spec: JobSpec,
               ckey: Optional[str] = None) -> Optional[JobResult]:
        """A stored point's whole submit, synchronously (counted as a job
        and a hit); None on a miss, which counts nothing.  ``ckey`` is the
        spec's config digest, if the caller has it."""
        record = self.store.get(ckey or config_digest(spec))
        if record is None:
            return None
        self._count("service.jobs", "points submitted")
        self._count("service.cache.hits", "points served from the store")
        return _result_from_record(spec, record, cached=True)

    async def submit(self, spec: JobSpec) -> JobResult:
        """Resolve one point: cache, then dedup, then simulate + persist."""
        # 1. memoized result?
        ckey = config_digest(spec)
        hit = self.lookup(spec, ckey)
        if hit is not None:
            return hit
        self._count("service.jobs", "points submitted")

        # 2. join an identical in-flight point (registered synchronously
        #    below, before any await — concurrent submits cannot race past
        #    this check in one event loop).
        pending = self._inflight.get(ckey)
        if pending is not None:
            self._count("service.dedup.joined", "submits joined in-flight work")
            record = await asyncio.shield(pending)
            return _result_from_record(spec, record, cached=True)
        self._count("service.cache.misses", "points not found in the store")

        # 3. simulate on the worker executor.
        loop = asyncio.get_running_loop()
        future: asyncio.Future[dict[str, Any]] = loop.create_future()
        self._inflight[ckey] = future
        try:
            record = await loop.run_in_executor(
                self._pool, run_point, spec.to_dict()
            )
            self._count("service.simulations", "simulations actually executed")
            await loop.run_in_executor(self._io, self.store.put, record)
            if record["status"] != "ok":
                self._count("service.failures", "failed points, deterministic or raised")
            future.set_result(record)
        except BaseException as exc:
            future.set_exception(exc)
            # Joined waiters observe the exception through the shield;
            # quiet the "exception never retrieved" warning for our copy.
            future.exception()
            self._count("service.failures", "failed points, deterministic or raised")
            raise
        finally:
            del self._inflight[ckey]
        return _result_from_record(spec, record, cached=False)

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
        if self.store.get(ckey) is not None:
            return "cached"
        return "unknown"

    def result_by_hash(self, digest: str) -> Optional[dict[str, Any]]:
        """Raw stored record for a config digest (None when absent)."""
        return self.store.get(digest)

    async def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        else:
            # Thread-executor points share this process's graph memo,
            # which lives as long as the server.
            graph_memo.clear()
        self._io.shutdown(wait=True)
