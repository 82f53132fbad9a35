"""Simulation-as-a-service: async sweep server with content-addressed caching.

The experiment entry points used to be one-shot scripts that re-built and
re-simulated identical points on every invocation.  This package turns
them into replayable traffic against a long-running (or in-process)
service:

* :mod:`~repro.service.jobs` — :class:`JobSpec`, the canonical
  JSON-serializable description of one simulation point;
* :mod:`~repro.service.hashing` — the content hash: compiled-graph
  structure hash + full-config digest, schema-versioned;
* :mod:`~repro.service.store` — :class:`ResultStore`, an append-only
  checksummed JSONL store keyed by point hash (corruption is detected
  and recomputed, never served);
* :mod:`~repro.service.runner` — :func:`run_point`, the pure worker
  function (deterministic: memoized reports are bit-identical to fresh
  runs on both engines);
* :mod:`~repro.service.server` — :class:`SweepServer`, the asyncio
  pipeline: in-flight dedup, memoization, process-pool sharding,
  progress-event streaming, ``repro.obs`` counters;
* :mod:`~repro.service.client` — :class:`SweepClient`, the synchronous
  API the benchmarks use (in-process or HTTP);
* :mod:`~repro.service.http` — optional stdlib HTTP front-end behind
  ``python -m repro.service serve``.

See ``docs/service.md`` (job schema, hash semantics, store layout) and
``docs/architecture.md`` (where the service sits in the stack).
"""

from .client import SweepClient
from .hashing import (
    SCHEMA_VERSION,
    config_digest,
    point_hash,
    structure_hash,
    structure_key,
)
from .jobs import (
    JobSpec,
    dist_from_spec,
    dist_to_spec,
    faults_from_spec,
    faults_to_spec,
    machine_from_spec,
    machine_to_spec,
)
from .runner import report_from_dict, report_to_dict, run_point
from .server import JobResult, SweepEvent, SweepServer
from .store import ResultStore

__all__ = [
    "JobSpec",
    "JobResult",
    "SweepEvent",
    "SweepServer",
    "SweepClient",
    "ResultStore",
    "run_point",
    "report_to_dict",
    "report_from_dict",
    "SCHEMA_VERSION",
    "config_digest",
    "structure_key",
    "structure_hash",
    "point_hash",
    "dist_to_spec",
    "dist_from_spec",
    "machine_to_spec",
    "machine_from_spec",
    "faults_to_spec",
    "faults_from_spec",
]
