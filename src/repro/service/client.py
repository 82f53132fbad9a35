"""Synchronous client API over the sweep service.

:class:`SweepClient` is what benchmarks and notebooks use.  Two modes:

* **in-process** (default): the client owns a private event loop, a
  :class:`~repro.service.store.ResultStore` and a
  :class:`~repro.service.server.SweepServer` — submitting is a plain
  function call, no sockets, and a warm store makes re-runs
  near-instant.  :mod:`repro.experiments` and every bench that
  simulates a POTRF point (``docs/benchmarks.md``) run in this mode.
* **remote**: pass ``url="http://host:port"`` to talk to a running
  ``python -m repro.service serve`` over the stdlib ``http.client``.

Both modes return :class:`~repro.service.server.JobResult` objects whose
``report`` is a fully reconstructed
:class:`~repro.runtime.simulator.SimReport` — bit-identical to a fresh
run (the determinism contract of :mod:`repro.service.runner`).
``simulations_run`` exposes the server's ``service.simulations`` obs
counter so callers can assert "zero new simulations" on warm caches.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
from collections.abc import Sequence
from typing import Any, Optional, Union, cast
from urllib.parse import urlsplit

from .jobs import JobSpec
from .server import JobResult, SweepServer, _result_from_record
from .store import ResultStore

__all__ = ["SweepClient"]

#: Environment variable naming a persistent store directory for clients
#: built without one (unset -> a temp store that lives as long as the
#: client).
STORE_ENV = "REPRO_SWEEP_STORE"


class SweepClient:
    """Submit sweep points and read results, synchronously."""

    def __init__(
        self,
        store: Union[ResultStore, os.PathLike[str], str, None] = None,
        url: Optional[str] = None,
        workers: int = 0,
    ) -> None:
        self.url = url
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[SweepServer] = None
        #: The temp store this client made for itself; :meth:`close` removes it.
        self._own_store: Optional[str] = None
        if url is None:
            if not isinstance(store, ResultStore):
                if store is None:
                    store = os.environ.get(STORE_ENV) or None
                if store is None:
                    store = self._own_store = tempfile.mkdtemp(prefix="repro-sweep-")
                store = ResultStore(store)
            self.server = SweepServer(store, workers=workers)
            self._loop = asyncio.new_event_loop()

    # -- core calls ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobResult:
        """Resolve one point (cache hit or fresh simulation)."""
        if self.url is not None:
            return self._http_submit(spec)
        assert self._loop is not None and self.server is not None
        hit = self.server.lookup(spec)  # a hit never enters the event loop
        return hit if hit is not None else self._loop.run_until_complete(self.server.submit(spec))

    def sweep(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Resolve many points, in input order; in-process mode serves the
        stored ones first, then runs the rest concurrently as one group."""
        if self.url is not None:
            return [self._http_submit(s) for s in specs]
        assert self._loop is not None and self.server is not None
        results = [self.server.lookup(s) for s in specs]
        misses = [s for s, res in zip(specs, results) if res is None]
        fresh = iter(self._loop.run_until_complete(self.server.sweep(misses))
                     if misses else ())
        return [res if res is not None else next(fresh) for res in results]

    def status(self, spec: JobSpec) -> str:
        if self.url is not None:
            doc = self._http_json("POST", "/status",
                                  json.dumps(spec.to_dict()).encode())
            return str(doc["status"])
        assert self.server is not None
        return self.server.status(spec)

    def result_by_hash(self, point_hash: str) -> Optional[dict[str, Any]]:
        if self.url is not None:
            try:
                return self._http_json("GET", f"/result/{point_hash}")
            except LookupError:
                return None
        assert self.server is not None
        return self.server.result_by_hash(point_hash)

    def simulations_run(self) -> int:
        """Simulations the backing server actually executed (obs counter)."""
        if self.url is not None:
            doc = self._http_json("GET", "/metrics")
            values = doc.get("service.simulations", {}).get("values", {})
            return int(sum(values.values()))
        assert self.server is not None
        return self.server.simulations()

    def close(self) -> None:
        if self._loop is not None:
            if self.server is not None:
                self._loop.run_until_complete(self.server.close())
            self._loop.close()
            self._loop = None
        if self._own_store is not None:
            shutil.rmtree(self._own_store, ignore_errors=True)
            self._own_store = None

    def __enter__(self) -> SweepClient:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- HTTP transport ------------------------------------------------------

    def _http_json(self, method: str, path: str,
                   body: Optional[bytes] = None) -> dict[str, Any]:
        import http.client

        assert self.url is not None
        parts = urlsplit(self.url)
        conn = http.client.HTTPConnection(parts.hostname,
                                          parts.port or 80, timeout=600)
        try:
            headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            if resp.status == 404:
                raise LookupError(path)
            if resp.status != 200:
                raise RuntimeError(
                    f"{method} {path} -> {resp.status}: {payload[:200]!r}"
                )
            return cast("dict[str, Any]", json.loads(payload.decode()))
        finally:
            conn.close()

    def _http_submit(self, spec: JobSpec) -> JobResult:
        doc = self._http_json("POST", "/submit",
                              json.dumps(spec.to_dict()).encode())
        return _result_from_record(spec, doc, cached=bool(doc.get("cached")))
