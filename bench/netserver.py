"""Progress-server process of the ``net_fleet`` workload.

Started by the benchmark as ``python3 bench/netserver.py``.  It talks to
the benchmark over its standard streams:

* stdin, first line: JSON with the two selectors
  (:func:`repro.learning.serialize.selector_to_dict`), ``refresh_every``,
  ``max_inflight`` and ``trace_dir`` (or null);
* stdout: ``READY <host> <port>`` once the server listens;
* end of stdin asks for a graceful drain; the last stdout line is JSON with
  the peak RSS (MB) of this process and of its shard worker.

The fleet is one shard in a worker process, with the server's default
slice.  With ``trace_dir`` set, the
span wrappers are installed before the fleet is built, so the fork-started
shard worker inherits them and writes its own ``spans-<pid>.json`` when it
exits; this process writes its file after shutdown, with an event-loop lag
probe's samples.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time
from pathlib import Path

from run import use_source_tree

#: event-loop lag probe period
PROBE_S = 0.010


async def probe_loop_lag(recorder) -> None:
    while True:
        started = time.perf_counter()
        await asyncio.sleep(PROBE_S)
        recorder.sample("loop_lag", time.perf_counter() - started - PROBE_S)


async def serve(config: dict, recorder) -> None:
    from repro.core.monitor import ProgressMonitor
    from repro.learning.serialize import selector_from_dict
    from repro.progress.registry import all_estimators
    from repro.service.net import ProgressServer

    static = selector_from_dict(config["static"])
    dynamic = selector_from_dict(config["dynamic"])
    estimators = all_estimators(include_worst_case=True)

    def make_monitor() -> ProgressMonitor:
        return ProgressMonitor(static, dynamic, estimators=estimators,
                               refresh_every=config["refresh_every"])

    server = ProgressServer(make_monitor, n_shards=1, processes=True,
                            max_inflight=config["max_inflight"])
    host, port = await server.start()
    probe = (asyncio.create_task(probe_loop_lag(recorder))
             if recorder is not None else None)
    print(f"READY {host} {port}", flush=True)
    await asyncio.to_thread(sys.stdin.read)  # until the benchmark closes it
    if probe is not None:
        probe.cancel()
        await asyncio.gather(probe, return_exceptions=True)
    await server.shutdown()


def main() -> None:
    use_source_tree()
    config = json.loads(sys.stdin.readline())
    recorder = None
    if config["trace_dir"]:
        from layers import LAYERS, install
        from spans import Recorder

        recorder = Recorder(LAYERS)
        install(recorder)
        recorder.follow_forks(config["trace_dir"])
    asyncio.run(serve(config, recorder))
    if recorder is not None:
        recorder.write(Path(config["trace_dir"]) / "spans-server.json")
    rss = [resource.getrusage(who).ru_maxrss / 1024.0
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print(json.dumps({"rss_mb": rss}), flush=True)


if __name__ == "__main__":
    main()
