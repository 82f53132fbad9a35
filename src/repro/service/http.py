"""Thin stdlib HTTP front-end for the sweep server (optional).

A deliberately small HTTP/1.1 layer over ``asyncio.start_server`` — no
framework, no third-party dependency — exposing the
:class:`repro.service.server.SweepServer` pipeline to remote clients:

=======  =================  ==============================================
method   path               semantics
=======  =================  ==============================================
POST     ``/submit``        body = job-spec JSON; runs the full pipeline
                            and returns the record (blocks until done)
POST     ``/status``        body = job-spec JSON; ``cached`` / ``running``
                            / ``unknown`` without triggering work
GET      ``/result/<hash>`` raw stored record for a point hash
GET      ``/metrics``       the server's metrics registry (JSON)
GET      ``/healthz``       liveness probe
=======  =================  ==============================================

Every response is JSON.  ``POST /submit`` responses carry ``"cached"``
so clients (and the CI smoke job) can assert cache behaviour end to
end.  The transport is line-protocol simple by design: one request per
connection, ``Content-Length`` framing, no keep-alive — sweep traffic
is few-large-requests, not chatty.  See ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from .jobs import JobSpec
from .server import SweepServer

__all__ = ["serve_http", "HttpSweepService"]

_MAX_BODY = 16 * 1024 * 1024


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _response(status: str, body: bytes,
              content_type: str = "application/json") -> bytes:
    head = (f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + body


class HttpSweepService:
    """One listening socket bound to one :class:`SweepServer`."""

    def __init__(self, server: SweepServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._asyncio_server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the (host, actual port) pair."""
        self._asyncio_server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._asyncio_server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._asyncio_server is not None, "call start() first"
        async with self._asyncio_server:
            await self._asyncio_server.serve_forever()

    async def close(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None

    # -- request handling ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            out = await self._dispatch(reader)
        except Exception as exc:  # defensive: never kill the listener
            out = _response("500 Internal Server Error",
                            _json_bytes({"error": repr(exc)}))
        try:
            writer.write(out)
            await writer.drain()
        finally:
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            raise ValueError(f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _dispatch(self, reader: asyncio.StreamReader) -> bytes:
        try:
            method, path, body = await self._read_request(reader)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            return _response("400 Bad Request", _json_bytes({"error": str(exc)}))

        if method == "GET" and path == "/healthz":
            return _response("200 OK", _json_bytes({"ok": True}))
        if method == "GET" and path == "/metrics":
            return _response("200 OK", _json_bytes(self.server.metrics.as_dict()))
        if method == "GET" and path.startswith("/result/"):
            record = self.server.result_by_hash(path[len("/result/"):])
            if record is None:
                return _response("404 Not Found",
                                 _json_bytes({"error": "unknown hash"}))
            return _response("200 OK", _json_bytes(record))
        if method == "POST" and path in ("/submit", "/status"):
            try:
                spec = JobSpec.from_dict(json.loads(body.decode()))
            except (ValueError, RecursionError) as exc:  # not JSON, too deep, or off-schema
                return _response("400 Bad Request",
                                 _json_bytes({"error": f"bad job spec: {exc}"}))
            if path == "/status":
                return _response("200 OK",
                                 _json_bytes({"status": self.server.status(spec)}))
            result = await self.server.submit(spec)
            doc: dict[str, Any] = dict(
                self.server.result_by_hash(result.hash) or {}
            )
            doc["cached"] = result.cached
            return _response("200 OK", _json_bytes(doc))
        return _response("404 Not Found", _json_bytes({"error": "no such route"}))


async def serve_http(server: SweepServer, host: str = "127.0.0.1",
                     port: int = 8642) -> HttpSweepService:
    """Start an HTTP front-end; caller keeps the loop alive."""
    svc = HttpSweepService(server, host, port)
    await svc.start()
    return svc
