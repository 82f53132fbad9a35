"""Command-line front door of the sweep service.

::

    python -m repro.service serve  --store DIR [--host H] [--port P] [--workers K]
    python -m repro.service submit (--store DIR | --server URL) [job flags]
    python -m repro.service status (--store DIR | --server URL) [job flags]
    python -m repro.service result (--store DIR | --server URL) HASH

``serve`` runs the asyncio server behind the stdlib HTTP front-end
(:mod:`repro.service.http`) until interrupted or sent SIGTERM; either way
it closes the server and its worker pool before it exits.  The other
subcommands act as clients: with ``--server`` they talk to a running
instance over HTTP; with ``--store`` they operate in-process against the
store directory directly (no daemon needed — handy for scripts and CI).
``serve`` and ``submit`` create a missing store directory; ``status`` and
``result`` only read one, and a missing one is a usage error.

Job flags (submit/status) are the ``JobSpec`` table's keys, spelt
``--name-with-dashes``; the machine has ``--nodes`` / ``--cores`` /
``--bandwidth`` / ``--latency``, the fault plan ``--faults-json FILE``, and
``--dist`` uses a compact syntax::

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
import os
import signal
import sys
from collections.abc import Sequence
from typing import Any, Optional

from ..config import bora
from ..schema import Codec
from .client import SweepClient
from .http import serve_http
from .jobs import TABLES, JobSpec, dist_from_spec, machine_to_spec
from .server import SweepServer
from .store import ResultStore

__all__ = ["main"]


def parse_dist(text: str) -> dict[str, Any]:
    """Parse the compact ``--dist`` syntax into a dist spec dict."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "sbc":
            fields = dict(kv.split("=", 1) for kv in rest.split(",") if kv)
            return {"kind": "sbc", "r": int(fields["r"]),
                    "variant": fields.get("variant", "extended")}
        if kind == "bc2d":
            p, _, q = rest.partition("x")
            return {"kind": "bc2d", "p": int(p), "q": int(q)}
        if kind == "row1d":
            return {"kind": "row1d", "P": int(rest)}
    except (KeyError, ValueError):  # a field missing or not an integer
        pass
    raise argparse.ArgumentTypeError(
        f"bad --dist {text!r}; use sbc:r=8 / bc2d:7x4 / row1d:12")


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    if args.spec_json is not None:
        fh = sys.stdin if args.spec_json == "-" else open(args.spec_json)
        try:
            return JobSpec.from_dict(json.load(fh))
        finally:
            if fh is not sys.stdin:
                fh.close()
    if args.dist is None:
        raise ValueError("either --dist or --spec-json is required")
    machine = machine_to_spec(bora(
        args.nodes if args.nodes is not None
        else dist_from_spec(args.dist).num_nodes))
    # A flag that is given is used as given (latency 0 is a machine);
    # JobSpec's machine check refuses what is not one.
    for key in ("cores", "bandwidth", "latency"):
        if getattr(args, key) is not None:
            machine[key] = getattr(args, key)
    faults = None
    if args.faults_json:
        with open(args.faults_json) as fh:
            faults = json.load(fh)
    # Every job flag is named after the spec field it sets.
    flags = {name: value for name, value in vars(args).items()
             if name in TABLES["JobSpec"]}
    return JobSpec.make(**flags, machine=machine, faults=faults)


def _open_store(parser: argparse.ArgumentParser, root: str,
                max_bytes: Optional[int] = None,
                create: bool = True) -> ResultStore:
    """The ``--store`` directory, or one ``error:`` line and exit 2 when it
    cannot be one (a regular file, a path through one, no permission) or
    when a command that only reads (``create=False``) names none."""
    if not create and not os.path.exists(root):
        parser.error(f"--store {root!r} does not exist")
    try:
        return ResultStore(root, max_bytes=max_bytes)
    except OSError as exc:
        parser.error(f"--store {root!r} is not a usable directory: "
                     f"{exc.strerror or exc}")


def _add_endpoint_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--server", default=None, metavar="URL",
                   help="running service (http://host:port)")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="operate in-process on this store directory")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes for --store mode (0 = in-process)")


#: CLI defaults of the keys a JobSpec requires.
_REQUIRED_DEFAULTS = {"algorithm": "cholesky", "ntiles": 20, "b": 512}


def _add_job_flags(p: argparse.ArgumentParser) -> None:
    # One flag per plain JobSpec key, typed and defaulted by its table (a
    # key's Codec encodes to a JSON scalar type, which also parses the
    # flag's text); JobSpec.from_dict alone validates what they parse to.
    for name, key in TABLES["JobSpec"].items():
        if name in ("dist", "machine", "faults"):
            continue
        flag = "--" + name.replace("_", "-")
        if key.type is bool:
            p.add_argument(flag, action="store_true")
        else:
            p.add_argument(flag, type=key.type.encode
                           if isinstance(key.type, Codec) else key.type,
                           default=_REQUIRED_DEFAULTS.get(name, key.default),
                           help="default: %(default)s")
    p.add_argument("--dist", type=parse_dist, default=None,
                   help="sbc:r=8 | bc2d:7x4 | row1d:12")
    p.add_argument("--nodes", type=int, default=None,
                   help="machine nodes (default: the distribution's)")
    p.add_argument("--cores", type=int, default=None, help="default: bora's")
    p.add_argument("--bandwidth", type=float, default=None, help="default: bora's")
    p.add_argument("--latency", type=float, default=None, help="default: bora's")
    p.add_argument("--faults-json", default=None, metavar="FILE",
                   help="FaultPlan spec JSON (see docs/service.md)")
    p.add_argument("--spec-json", default=None, metavar="FILE",
                   help="full JobSpec JSON ('-' = stdin); overrides job flags")


async def _run_server(args: argparse.Namespace, store: ResultStore) -> int:
    server = SweepServer(store, workers=args.workers)
    svc = await serve_http(server, args.host, args.port)
    print(f"sweep service on http://{svc.host}:{svc.port} "
          f"(store {store.root}, {len(store)} cached points, "
          f"{args.workers} workers)", flush=True)
    serving = asyncio.ensure_future(svc.serve_forever())
    # SIGTERM ends the service like Ctrl-C: the pool's workers are shut
    # down, not left behind.
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        pass
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
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
    p_result.add_argument("hash", help="config digest (from submit output)")

    args = parser.parse_args(argv)
    if args.command != "serve" and not (args.server or args.store):
        sub.choices[args.command].error("pass --server URL or --store DIR")

    if args.command == "serve":
        store = _open_store(p_serve, args.store, args.max_store_bytes or None)
        try:
            return asyncio.run(_run_server(args, store))
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0

    if args.command in ("submit", "status"):
        try:
            spec = _spec_from_args(args)
        except (ValueError, OSError) as exc:
            sub.choices[args.command].error(str(exc))
    client = (SweepClient(url=args.server) if args.server else SweepClient(
        store=_open_store(sub.choices[args.command], args.store,
                          create=args.command == "submit"),
        workers=args.workers))

    if args.command == "submit":
        with client:
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
        with client:
            print(client.status(spec))
        return 0

    if args.command == "result":
        with client:
            record = client.result_by_hash(args.hash)
        if record is None:
            print(f"no stored result for {args.hash}", file=sys.stderr)
            return 1
        try:
            json.dump(record, sys.stdout, indent=2, sort_keys=True)
            print(flush=True)
        except BrokenPipeError:
            # The reader closed the pipe (``| head``): point stdout at
            # /dev/null so the interpreter's exit flush is quiet too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0

    return 2  # pragma: no cover - argparse guards choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
