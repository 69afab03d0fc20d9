"""Run a progress server: ``python -m repro.service.net``.

Serves :class:`~repro.service.net.server.ProgressServer` on the given
address until SIGINT/SIGTERM, then drains gracefully: admissions stop
(503 + Retry-After), every admitted session finishes serving and its
subscribers receive their completion frames, and only then does the
process exit.  A second signal aborts immediately.

Example::

    python -m repro.service.net --port 8765 --shards 4 --processes
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import signal
import sys

from repro.core.monitor import ProgressMonitor
from repro.service.net.server import ProgressServer


def _make_monitor(refresh_every: int) -> ProgressMonitor:
    """Module-level monitor factory (picklable for ``--processes``)."""
    return ProgressMonitor(refresh_every=refresh_every)


def positive_int(text: str) -> int:
    """An argument of at least 1; anything else is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.net",
        description="Serve robust progress estimation over HTTP/WebSocket.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="listen address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8765,
                        help="listen port, 0 for ephemeral "
                        "(default: %(default)s)")
    parser.add_argument("--shards", type=positive_int, default=1,
                        help="shard count (default: %(default)s)")
    parser.add_argument("--processes", action="store_true",
                        help="run shards in worker processes")
    parser.add_argument("--slice-steps", type=positive_int, default=8,
                        help="engine steps per session per tick "
                        "(default: %(default)s)")
    parser.add_argument("--max-live", type=positive_int, default=None,
                        help="live-session cap per shard")
    parser.add_argument("--memory-budget-bytes", type=int, default=None,
                        help="per-shard admission budget in bytes")
    parser.add_argument("--max-inflight", type=int, default=None,
                        help="fleet-wide inflight-session cap (excess "
                        "submissions get 429)")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        help="seconds advertised in Retry-After headers "
                        "(default: %(default)s)")
    parser.add_argument("--refresh-every", type=positive_int, default=5,
                        help="monitor report cadence in engine steps "
                        "(default: %(default)s)")
    return parser


async def serve(args: argparse.Namespace) -> None:
    server = ProgressServer(
        functools.partial(_make_monitor, args.refresh_every),
        host=args.host, port=args.port, n_shards=args.shards,
        slice_steps=args.slice_steps, max_live=args.max_live,
        memory_budget_bytes=args.memory_budget_bytes,
        processes=args.processes,
        max_inflight=args.max_inflight, retry_after=args.retry_after)
    host, port = await server.start()
    print(f"progress server listening on http://{host}:{port} "
          f"({args.shards} shard(s), "
          f"{'processes' if args.processes else 'inline'})", flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    for sig in (signal.SIGINT, signal.SIGTERM):  # second signal: hard exit
        loop.remove_signal_handler(sig)
    print("draining: admissions stopped, serving remaining sessions...",
          flush=True)
    await server.shutdown()
    print("drained; bye", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
