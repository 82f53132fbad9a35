"""Content addressing for sweep points.

A point's address is its **config digest**: the SHA-256 of
:data:`SCHEMA_VERSION` and the canonical JSON of the *full*
:class:`repro.service.jobs.JobSpec`.  Any field change (tile count,
distribution parameter, network constant, fault seed, engine, ...) yields
a new digest, and the fields the task graph depends on (``algorithm``,
``ntiles``, ``b``, ``dist``, ``element_size``) are among them, so the
digest alone names what runs.  It keys in-flight dedup, the result store,
``JobResult.hash`` and ``/result/<hash>``.  Bumping :data:`SCHEMA_VERSION`
invalidates every prior entry at once; see ``docs/service.md`` ("Content
hash") for the invalidation matrix.

:func:`structure_key` (canonical JSON of :meth:`JobSpec.structure_fields`)
keys a held DAG's placements in the workers' graph memo, and
:func:`structure_hash` fingerprints a compiled graph's arrays for the
tests that pin the graph builders; no address depends on either.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Any, Union

import numpy as np

from ..graph.compiled import CompiledGraph
from .jobs import JobSpec, canonical_json

__all__ = [
    "SCHEMA_VERSION",
    "config_digest",
    "structure_key",
    "structure_hash",
]

#: Bump to invalidate every cached result: any graph-builder or engine
#: change that alters the result of an unchanged spec.
#: v2: JobSpec grew the ``policy`` field (scheduler framework) — old
#: entries hashed a spec without it.
#: v3: JobSpec grew the ``kernel`` field, and the structure hash now
#: canonicalizes the kind table (codes remapped through sorted used-kind
#: names) — old structure hashes depended on kind registration order.
#: v4: machine specs grew the ``topology`` key (routed interconnect +
#: per-node heterogeneity, ``None`` for the historic clique) — it feeds
#: the config digest, since topology changes simulated timings but not
#: the task graph.
#: v5: JobSpec lost the ``kernel`` field (every serve loop is bit-identical
#: by contract, so it could only split one result over four cache keys);
#: a ``"kernel"`` key in a submitted dict raises like any unknown field.
#: v6: the compiled engine charges a task a migrating policy moved the
#: speed of the node it runs on, as the object engine does (it charged
#: the owner's); results of ``heft-lookahead`` on per-node speeds changed.
SCHEMA_VERSION = 6


def _h(*parts: bytes) -> str:
    """SHA-256 of the parts, each followed by a NUL byte, in one update."""
    return hashlib.sha256(b"\x00".join(parts) + b"\x00").hexdigest()


def config_digest(spec: Union[JobSpec, Mapping[str, Any]]) -> str:
    """Digest of the full canonical spec (any field change changes it); a
    plain spec dict (``JobSpec.to_dict()``) digests to the same bytes."""
    text = spec.canonical() if isinstance(spec, JobSpec) else canonical_json(spec)
    return _h(b"config", str(SCHEMA_VERSION).encode(), text.encode())


def structure_key(spec: JobSpec) -> str:
    """Canonical JSON of the fields the graph structure depends on (memoized)."""
    return spec._structure_key


def structure_hash(cg: CompiledGraph) -> str:
    """Hash of the compiled graph's structural arrays.

    Includes every array that defines tasks, placement, dependencies and
    data sizes; excludes derived state (priorities, cached comm plan) and
    provenance extras (``data_keys``, ``level_ranges``) so the direct
    compilers and the generic :func:`repro.graph.compiled.compile_graph`
    lowering of the same graph hash identically — the same equality the
    property suite pins for the engines.

    The kind table is hashed in *canonical* form: ``compile_graph``
    appends unknown kinds to the global table in first-seen order, so raw
    ``kind_codes`` (and the table itself) depend on what was lowered
    earlier in the process.  Codes are remapped through the sorted table
    of kinds actually used by this graph — two registrations of the same
    graph under permuted kind tables hash identically, and unused table
    entries never leak into the hash.
    """
    h = hashlib.sha256()
    h.update(b"structure")
    h.update(str(SCHEMA_VERSION).encode())
    codes = np.ascontiguousarray(cg.kind_codes)
    used = np.unique(codes)
    used_names = [cg.kind_names[int(c)] for c in used]
    rank = {name: k for k, name in enumerate(sorted(used_names))}
    lut = np.zeros((int(used.max()) + 1) if len(used) else 1, dtype=np.int16)
    for c, name in zip(used, used_names):
        lut[int(c)] = rank[name]
    canon_codes = lut[codes]
    meta = (cg.b, cg.width, cg.element_size, cg.n_init,
            tuple(sorted(used_names)))
    h.update(repr(meta).encode())
    # ``a.data`` feeds the array's buffer to sha256 without the
    # ``.tobytes()`` copy — at paper scale the arrays total ~600 MB and
    # the copy nearly doubled the hash time (and its transient peak).
    for arr in (canon_codes, cg.node, cg.flops, cg.iteration,
                cg.write_id, cg.read_ptr, cg.read_ids,
                cg.data_producer, cg.data_source_node, cg.data_nbytes):
        a = np.ascontiguousarray(arr)
        h.update(a.dtype.str.encode())
        h.update(a.data)
    return h.hexdigest()

