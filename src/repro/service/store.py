"""Persistent content-addressed result store (append-only JSONL).

Layout of a store directory::

    store/
      results.jsonl      one record per completed point, keyed by hash
      structures.jsonl   structure-key -> structure-hash memo

Both files are append-only logs of single-line JSON envelopes::

    {"schema": SCHEMA_VERSION, "sha": "<sha256 of payload>", ...payload...}

``sha`` is the SHA-256 of the canonical JSON of the envelope minus the
``sha`` field itself, so any torn write, truncation or bit-rot is
detected at load time: a line that fails to parse, carries the wrong
schema version, or mismatches its checksum is *skipped* (and counted in
``corrupt_entries``) — the server then treats the point as uncached and
recomputes it, appending a fresh valid record.  Records are checksummed
once, at load; a hit re-checks only the stored spec against the one
submitted (:meth:`repro.service.server.SweepServer.lookup`).

Appends are last-wins per key, which is what makes recovery and
re-runs idempotent; :meth:`ResultStore.compact` rewrites each file with
one line per live key.  Concurrent *processes* should not share a store
directory for writing (the service owns its store); concurrent readers
are safe.

An optional size cap (``max_bytes=``) bounds the live result payload:
when an append pushes past it, least-recently-used records are evicted
(reads refresh recency, so a warm sweep's working set survives) and the
log is compacted so the evicted lines physically disappear.  The log is
also compacted opportunistically once dead appends (last-wins
duplicates) dominate the file.  Evicting a record only costs a future
recompute — the store is a cache, not the system of record.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator, Mapping
from pathlib import Path
from typing import Any, Optional, Union

from .hashing import SCHEMA_VERSION
from .jobs import canonical_json

__all__ = ["ResultStore"]


def _checksum(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _seal(payload: dict[str, Any]) -> str:
    """Envelope one payload as a JSONL line with schema + checksum."""
    body = dict(payload)
    body["schema"] = SCHEMA_VERSION
    body["sha"] = _checksum(body)
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _open_valid(line: bytes) -> Optional[dict[str, Any]]:
    """Parse + verify one envelope line; None when corrupt/foreign."""
    try:
        body = json.loads(line)
    except (ValueError, RecursionError):  # not JSON, too deep, or not even text
        return None
    if not isinstance(body, dict) or body.get("schema") != SCHEMA_VERSION:
        return None
    sha = body.pop("sha", None)
    if sha != _checksum(body):
        return None
    return body


class ResultStore:
    """On-disk memo of completed sweep points (see module docstring)."""

    RESULTS = "results.jsonl"
    STRUCTURES = "structures.jsonl"

    #: Durability modes: "always" fsyncs every append (a completed point
    #: survives an immediate power cut); "batch" only flushes to the OS on
    #: append and fsyncs at :meth:`sync`/:meth:`compact` — far cheaper
    #: under sweep bursts, at the cost of possibly recomputing the last
    #: few points after a crash (appends are idempotent, so that is safe).
    FSYNC_MODES = ("always", "batch")

    def __init__(self, root: Union[str, os.PathLike[str]],
                 fsync: str = "always",
                 max_bytes: Optional[int] = None) -> None:
        if fsync not in self.FSYNC_MODES:
            raise ValueError(
                f"fsync must be one of {self.FSYNC_MODES}, got {fsync!r}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        #: Cap on the live result payload (sealed-line bytes); None =
        #: unbounded (the historic behaviour).
        self.max_bytes = max_bytes
        #: envelope lines skipped at load time (corruption indicator)
        self.corrupt_entries = 0
        #: records dropped by the LRU cap over this store's lifetime
        self.evictions = 0
        # Insertion order doubles as the LRU order: get() re-inserts on
        # hit, so the first key is always the coldest.
        self._results: dict[str, dict[str, Any]] = {}
        self._structures: dict[str, str] = {}
        # Sealed-line size per live record (+1 for the newline) and the
        # running totals used by the cap / compaction heuristics.
        self._sizes: dict[str, int] = {}
        self._live_bytes = 0
        self._log_bytes = 0
        self._load()
        if max_bytes is not None:
            self._enforce_cap()

    # -- loading ------------------------------------------------------------

    def _lines(self, name: str) -> Iterator[bytes]:
        """Non-empty lines, as bytes: a flipped bit may not even decode,
        and that is one more way for a line to be corrupt."""
        path = self.root / name
        if not path.exists():
            return
        with open(path, "rb") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield line

    def _load(self) -> None:
        for line in self._lines(self.RESULTS):
            self._log_bytes += len(line) + 1
            body = _open_valid(line)
            if body is None or "hash" not in body:
                self.corrupt_entries += 1
                continue
            h = body["hash"]
            old = self._sizes.get(h)
            if old is not None:
                self._live_bytes -= old
                self._results.pop(h, None)  # last-wins refreshes recency
            self._sizes[h] = len(line) + 1
            self._live_bytes += len(line) + 1
            self._results[h] = body
        for line in self._lines(self.STRUCTURES):
            body = _open_valid(line)
            if body is None or "key" not in body or "structure" not in body:
                self.corrupt_entries += 1
                continue
            self._structures[body["key"]] = body["structure"]

    # -- results ------------------------------------------------------------

    def get(self, point_hash: str) -> Optional[dict[str, Any]]:
        """The stored record for ``point_hash``, or None when uncached."""
        body = self._results.get(point_hash)
        if body is not None:
            # Refresh LRU recency: re-insert at the warm end.
            self._results[point_hash] = self._results.pop(point_hash)
        return body

    def put(self, record: Mapping[str, Any]) -> None:
        """Append one completed-point record (must carry ``hash``)."""
        if "hash" not in record:
            raise ValueError("result record needs a 'hash' field")
        body = dict(record)
        line = _seal(body)
        self._append(self.RESULTS, line)
        body["schema"] = SCHEMA_VERSION
        h = body["hash"]
        old = self._sizes.get(h)
        if old is not None:
            self._live_bytes -= old
            self._results.pop(h, None)
        self._sizes[h] = len(line) + 1
        self._live_bytes += len(line) + 1
        self._results[h] = body
        if self.max_bytes is not None:
            self._enforce_cap()

    # -- structure-hash memo -------------------------------------------------

    def get_structure(self, key: str) -> Optional[str]:
        """Memoized structure hash for a structure key, or None."""
        return self._structures.get(key)

    def put_structure(self, key: str, structure: str) -> None:
        if self._structures.get(key) == structure:
            return
        self._append(self.STRUCTURES, _seal({"key": key, "structure": structure}))
        self._structures[key] = structure

    # -- maintenance ---------------------------------------------------------

    def _append(self, name: str, line: str) -> None:
        with open(self.root / name, "ab+") as fh:
            # A crash mid-append leaves a partial last line; appending to
            # it would fuse this record into the torn one and lose both.
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(line.encode() + b"\n")
            fh.flush()
            if self.fsync == "always":
                os.fsync(fh.fileno())
        if name == self.RESULTS:
            self._log_bytes += len(line) + 1

    def _enforce_cap(self) -> None:
        """Evict cold records past ``max_bytes``; compact once dead
        appends dominate the log (amortized O(1) per put)."""
        cap = self.max_bytes
        if cap is None:
            return
        evicted = False
        while self._live_bytes > cap and len(self._results) > 1:
            h = next(iter(self._results))  # coldest entry
            del self._results[h]
            self._live_bytes -= self._sizes.pop(h)
            self.evictions += 1
            evicted = True
        # Eviction is in-memory; the dead lines stay on disk until the
        # log doubles past the live payload (so compaction cost spreads
        # over at least as many appends as records kept).
        if evicted and self._log_bytes > max(2 * self._live_bytes, cap):
            self.compact()

    def sync(self) -> None:
        """Force both logs to stable storage (a no-op worth calling only
        in ``fsync="batch"`` mode, where appends skip the per-line fsync)."""
        for name in (self.RESULTS, self.STRUCTURES):
            path = self.root / name
            if path.exists():
                with open(path, "a") as fh:
                    os.fsync(fh.fileno())

    def compact(self) -> None:
        """Rewrite both logs with one line per live key (LRU order for
        results, so a reload reconstructs the same eviction order)."""
        for name, items in (
            (self.RESULTS, list(self._results.values())),
            (self.STRUCTURES, [
                {"key": k, "structure": v} for k, v in self._structures.items()
            ]),
        ):
            tmp = self.root / (name + ".tmp")
            with open(tmp, "w") as fh:
                for body in items:
                    payload = {k: v for k, v in body.items()
                               if k not in ("schema", "sha")}
                    fh.write(_seal(payload) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.root / name)
        self._log_bytes = self._live_bytes

    def __len__(self) -> int:
        return len(self._results)

    def hashes(self) -> list[str]:
        return list(self._results)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ResultStore {self.root} results={len(self._results)} "
                f"structures={len(self._structures)} "
                f"corrupt={self.corrupt_entries}>")
