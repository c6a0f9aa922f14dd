"""``python -m repro.live`` — serve, record, replay and stress.

Subcommands::

    serve   [--host H] [--port P] [--rate R|--turbo] [--trace FILE]
            [--duration WALL_SECONDS] [fabric flags]
    record  --trace FILE [same as serve]  (serve that *requires* a trace)
    replay  TRACE [--workers N] [--store PATH] [--check] [--json]
    stress  --port P [--host H] [--rate RPS] [--duration S] [--seed S]
            [--kind post|get|steer|stats] [--steer-every N] [--json]

``serve`` runs the control plane against the wall clock until the
duration elapses (or SIGINT/SIGTERM), then drains gracefully.  ``replay
--check`` is the determinism gate CI leans on: the trace is replayed
twice — once with 1 worker, once with 2 — and the run exits non-zero
unless the two MatrixReports are byte-identical.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Optional, Sequence

from repro.errors import LiveError, ReproError
from repro.live.client import KINDS, StressClient
from repro.live.replay import matrix_digest, replay_trace
from repro.live.server import DEFAULT_CONFIG, LiveServer


def _add_fabric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--rate", type=float, default=None,
                   help=f"sim-seconds per wall-second (default {DEFAULT_CONFIG['rate']})")
    p.add_argument("--turbo", action="store_true",
                   help="run the kernel as fast as possible (rate=None)")
    p.add_argument("--n-sites", type=int, default=None)
    p.add_argument("--queue-slots", type=int, default=None)
    p.add_argument("--queue-limit", type=int, default=None)
    p.add_argument("--placement", default=None,
                   choices=("least-loaded", "p2c"))
    p.add_argument("--autoscale", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--duration", type=float, default=None,
                   help="wall seconds to serve; default: until SIGINT")
    p.add_argument("--grace", type=float, default=60.0,
                   help="sim-seconds of drain budget at shutdown")


def _config_from(args: argparse.Namespace) -> dict:
    config: dict = {}
    for flag, key in (
        ("n_sites", "n_sites"),
        ("queue_slots", "queue_slots"),
        ("queue_limit", "queue_limit"),
        ("placement", "placement"),
        ("seed", "seed"),
    ):
        value = getattr(args, flag)
        if value is not None:
            config[key] = value
    if args.turbo:
        config["rate"] = None
    elif args.rate is not None:
        config["rate"] = args.rate
    if args.autoscale:
        config["autoscale"] = True
    return config


async def _serve(args: argparse.Namespace) -> dict:
    server = LiveServer(
        host=args.host, port=args.port,
        config=_config_from(args), trace_path=args.trace,
    )
    await server.start()
    where = f"http://{server.host}:{server.port}"
    tracing = f", tracing to {args.trace}" if args.trace else ""
    print(f"live control plane on {where} (rate={server.runner.rate}){tracing}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix
            pass
    if args.duration is not None:
        loop.call_later(args.duration, stop.set)
    await stop.wait()
    print("shutting down: draining schedule ...", flush=True)
    drain = await server.shutdown(grace=args.grace)
    stats = server.statsz()
    queue = stats["queue"]
    print(
        f"served {stats['server']['requests']} requests "
        f"({queue['offered'] - queue['rejected']} queued, {queue['rejected']} rejected); "
        f"drained {drain['events']} events "
        f"({'complete' if drain['drained'] else 'schedule not empty'})",
        flush=True,
    )
    return stats


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve`` and ``record``: they differ only in ``--trace`` being
    optional or required."""
    asyncio.run(_serve(args))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    matrix = replay_trace(args.trace, store_path=args.store, workers=args.workers)
    digest = matrix_digest(matrix)
    if args.check:
        again = matrix_digest(replay_trace(args.trace, workers=1))
        parallel = matrix_digest(replay_trace(args.trace, workers=2))
        if digest == again == parallel:
            print(f"replay deterministic: {digest} (x2 replays, 1 vs 2 workers)")
        else:
            print(
                f"REPLAY DRIFT: {digest} vs {again} (repeat) "
                f"vs {parallel} (2 workers)",
                file=sys.stderr,
            )
            return 1
    if args.json:
        print(json.dumps(matrix.to_dict(), sort_keys=True, indent=2))
    else:
        print(matrix.render(per_cell=True))
        print(f"matrix digest {digest}")
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    client = StressClient(
        args.host, args.port,
        rate=args.rate, duration=args.duration, seed=args.seed,
        session=json.loads(args.session) if args.session else None,
        steer_every=args.steer_every, kind=args.kind,
    )
    report = asyncio.run(client.run())
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(
            f"{report['requests']} requests in {report['wall_seconds']:.2f}s "
            f"({report['achieved_rps']:.1f} rps): "
            f"{report['admitted']} admitted, {report['rejected']} rejected, "
            f"{report['errors']} errors; "
            f"latency p50 {report['latency_p50'] * 1e3:.1f}ms "
            f"p90 {report['latency_p90'] * 1e3:.1f}ms"
        )
    if report["errors"]:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="real-time steering control plane over the DES fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="serve the control plane")
    _add_fabric_flags(p)
    p.add_argument("--trace", default=None, help="record arrivals to this JSONL file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("record", help="serve with mandatory trace capture")
    _add_fabric_flags(p)
    p.add_argument("--trace", required=True, help="JSONL file to record arrivals to")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("replay", help="replay a trace as a campaign cell")
    p.add_argument("trace")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--store", default=None, help="persist the cell record here")
    p.add_argument("--check", action="store_true",
                   help="replay x2 and with 2 workers; fail on any drift")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("stress", help="seeded open-loop load against a server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--rate", type=float, default=10.0, help="offered requests/second")
    p.add_argument("--duration", type=float, default=3.0, help="wall seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", default="post", choices=sorted(KINDS),
                   help="what each request asks: offer a session (default), GET it, "
                        "steer it, or GET /statsz")
    p.add_argument("--steer-every", type=int, default=0,
                   help="steer every N-th admitted session")
    p.add_argument("--session", default=None,
                   help="JSON object merged into every POST /sessions body")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stress)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        kind = "live" if isinstance(exc, LiveError) else type(exc).__name__
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2
