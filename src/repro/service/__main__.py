"""Command-line front door of the sweep service.

::

    python -m repro.service serve  --store DIR [--host H] [--port P] [--workers K]
    python -m repro.service submit (--store DIR | --server URL) [job flags]
    python -m repro.service status (--store DIR | --server URL) [job flags]
    python -m repro.service result (--store DIR | --server URL) HASH

``serve`` runs the asyncio server behind the stdlib HTTP front-end
(:mod:`repro.service.http`) until interrupted.  The other subcommands
act as clients: with ``--server`` they talk to a running instance over
HTTP; with ``--store`` they operate in-process against the store
directory directly (no daemon needed — handy for scripts and CI).

Job flags (submit/status) mirror the :class:`repro.service.jobs.JobSpec`
fields; ``--dist`` uses a compact syntax::

    --dist sbc:r=8              SymmetricBlockCyclic(8)
    --dist sbc:r=4,variant=basic
    --dist bc2d:7x4             BlockCyclic2D(7, 4)
    --dist row1d:12             RowCyclic1D(12)

or pass a full spec as JSON with ``--spec-json FILE`` (``-`` = stdin).
A worked end-to-end example lives in ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections.abc import Sequence
from typing import Any, Optional

from ..config import bora
from .client import SweepClient
from .http import serve_http
from .jobs import (
    ALGORITHMS,
    BROADCASTS,
    ENGINES,
    TABLES,
    JobSpec,
    dist_from_spec,
    machine_to_spec,
)
from .server import SweepServer
from .store import ResultStore

__all__ = ["main"]


def parse_dist(text: str) -> dict[str, Any]:
    """Parse the compact ``--dist`` syntax into a dist spec dict."""
    kind, _, rest = text.partition(":")
    if kind == "sbc":
        fields = dict(kv.split("=", 1) for kv in rest.split(",") if kv)
        return {"kind": "sbc", "r": int(fields["r"]),
                "variant": fields.get("variant", "extended")}
    if kind == "bc2d":
        p, _, q = rest.partition("x")
        return {"kind": "bc2d", "p": int(p), "q": int(q)}
    if kind == "row1d":
        return {"kind": "row1d", "P": int(rest)}
    raise argparse.ArgumentTypeError(
        f"unknown --dist {text!r}; use sbc:r=8 / bc2d:7x4 / row1d:12"
    )


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    if args.spec_json is not None:
        fh = sys.stdin if args.spec_json == "-" else open(args.spec_json)
        try:
            return JobSpec.from_dict(json.load(fh))
        finally:
            if fh is not sys.stdin:
                fh.close()
    if args.dist is None:
        raise SystemExit("either --dist or --spec-json is required")
    machine = machine_to_spec(
        bora(args.nodes or dist_from_spec(args.dist).num_nodes))
    for key in ("cores", "bandwidth", "latency"):
        if getattr(args, key):
            machine[key] = getattr(args, key)
    faults = None
    if args.faults_json:
        with open(args.faults_json) as fh:
            faults = json.load(fh)
    # Every job flag is named after the spec field it sets.
    flags = {name: value for name, value in vars(args).items()
             if name in TABLES["JobSpec"]}
    return JobSpec.make(**flags, machine=machine, faults=faults)


def _client(args: argparse.Namespace) -> SweepClient:
    if args.server:
        return SweepClient(url=args.server)
    if args.store:
        return SweepClient(store=args.store, workers=args.workers)
    raise SystemExit("pass --server URL or --store DIR")


def _add_endpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--server", default=None, metavar="URL",
                   help="running service (http://host:port)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="operate in-process on this store directory")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes for --store mode (0 = in-process)")


def _add_job_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=ALGORITHMS, default="cholesky")
    p.add_argument("--ntiles", type=int, default=20, help="tile count N")
    p.add_argument("--b", type=int, default=512, help="tile size")
    p.add_argument("--dist", type=parse_dist, default=None,
                   help="sbc:r=8 | bc2d:7x4 | row1d:12")
    p.add_argument("--engine", choices=ENGINES, default="compiled")
    p.add_argument("--nodes", type=int, default=0,
                   help="machine nodes (default: the distribution's)")
    p.add_argument("--cores", type=int, default=0)
    p.add_argument("--bandwidth", type=float, default=0.0)
    p.add_argument("--latency", type=float, default=0.0)
    p.add_argument("--synchronized", action="store_true")
    p.add_argument("--broadcast", choices=BROADCASTS, default="direct")
    p.add_argument("--policy", default="critical-path", metavar="NAME",
                   help="scheduler policy (see repro.schedulers.POLICIES; "
                        "default: critical-path)")
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--collect-metrics", action="store_true")
    p.add_argument("--faults-json", default=None, metavar="FILE",
                   help="FaultPlan spec JSON (see docs/service.md)")
    p.add_argument("--spec-json", default=None, metavar="FILE",
                   help="full JobSpec JSON ('-' = stdin); overrides job flags")


async def _run_server(args: argparse.Namespace) -> int:
    store = ResultStore(args.store, max_bytes=args.max_store_bytes or None)
    server = SweepServer(store, workers=args.workers)
    svc = await serve_http(server, args.host, args.port)
    print(f"sweep service on http://{svc.host}:{svc.port} "
          f"(store {store.root}, {len(store)} cached points, "
          f"{args.workers} workers)", flush=True)
    try:
        await svc.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        await svc.close()
        await server.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation sweep service with content-addressed caching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP service")
    p_serve.add_argument("--store", required=True, metavar="DIR")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642)
    p_serve.add_argument("--workers", type=int, default=0)
    p_serve.add_argument("--max-store-bytes", type=int, default=0,
                         metavar="N",
                         help="LRU-evict cached results past N bytes "
                              "(0 = unbounded)")

    p_submit = sub.add_parser("submit", help="submit one point, print result")
    _add_endpoint_flags(p_submit)
    _add_job_flags(p_submit)

    p_status = sub.add_parser("status", help="cache state of one point")
    _add_endpoint_flags(p_status)
    _add_job_flags(p_status)

    p_result = sub.add_parser("result", help="print a stored record by hash")
    _add_endpoint_flags(p_result)
    p_result.add_argument("hash", help="point hash (from submit output)")

    args = parser.parse_args(argv)

    if args.command == "serve":
        try:
            return asyncio.run(_run_server(args))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0

    if args.command == "submit":
        spec = _spec_from_args(args)
        with _client(args) as client:
            res = client.submit(spec)
            print(f"hash: {res.hash}")
            print(f"status: {res.status}")
            print(f"cached: {str(res.cached).lower()}")
            if res.report is not None:
                print(f"makespan_seconds: {res.report.makespan!r}")
                print(f"comm_bytes: {res.report.comm_bytes}")
                print(f"comm_messages: {res.report.comm_messages}")
                print(f"gflops_per_node: {res.report.gflops_per_node:.3f}")
            if res.error:
                print(f"error: {res.error}")
            return 0 if res.status == "ok" else 1

    if args.command == "status":
        spec = _spec_from_args(args)
        with _client(args) as client:
            print(client.status(spec))
        return 0

    if args.command == "result":
        with _client(args) as client:
            record = client.result_by_hash(args.hash)
        if record is None:
            print(f"no stored result for {args.hash}", file=sys.stderr)
            return 1
        json.dump(record, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0

    return 2  # pragma: no cover - argparse guards choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
