"""The program's layers as the benchmark traces them.

Each layer is named after the module that owns it and measured by wrapping
the public calls listed in :func:`install` (methods on the class and its
overriding subclasses, module functions wherever they were imported).
Every span nests: a layer's self time excludes the wrapped calls it makes,
so the self times of one thread add up to the time that thread spent inside
traced calls.
"""

from __future__ import annotations

from spans import Recorder

#: layer names in report order (the order of the per-layer table)
LAYERS = [
    "service.sharded",        # ShardedProgressService.tick: IPC wait + merge
    "service.shard",          # ShardWorker.tick: deferred admission
    "service.tick",           # ProgressService.tick: admission, retirement
    "service.scheduler",      # RoundRobinScheduler slices
    "service.batched.flush",  # VectorizedFlush.flush: planning, gather
    "service.scoring",        # BatchedSelectorScorer.resolve
    "core.selection",         # EstimatorSelector.predict_errors
    "learning.predict",       # MARTRegressor.predict
    "features.extract",       # FeatureExtractor.extract
    "progress.soa",           # BatchedStreamState.advance (+ subclasses)
    "core.monitor",           # ProgressMonitor.snapshot / finalize
    "trace.replay",           # ReplayHandle.step / skip
    "engine.step",            # ExecutionHandle.step
    "engine.execute",         # QueryExecutor.execute
    "optimizer.plan",         # Planner.plan
    "trace.codec",            # reports_* / runs_* payload functions
    "net.http",               # response_bytes, json_body, error_body
    "net.ws",                 # encode_frame, handshake_response
    "core.training",          # runs_to_pipelines, collect_training_data
    "progress.estimate",      # ProgressEstimator.estimate (+ subclasses)
    "learning.fit",           # MARTRegressor.fit
    "core.evaluate",          # evaluate_selection / _fixed / _choices
]


def _rows(args, result) -> int:
    """Rows (or requests) in the call's first argument after ``self``."""
    return len(args[1])


def _payload_bytes(args, result) -> int:
    """Bytes crossing the codec: the encoded result or the decoded input."""
    return len(result) if isinstance(result, bytes) else len(args[0])


def install(recorder: Recorder) -> None:
    """Wrap every layer's public calls (imports the whole program)."""
    # every module that imports a wrapped function must be loaded before
    # patching, so the copy it imported is replaced too
    import repro.core.evaluate as evaluate
    import repro.core.training as training
    import repro.experiments.harness  # noqa: F401
    import repro.progress.registry  # noqa: F401  (every estimator class)
    import repro.runtime.transport as transport
    import repro.service.net  # noqa: F401  (server, client)
    import repro.service.net.http as http
    import repro.service.net.websocket as websocket
    from repro.core.monitor import ProgressMonitor
    from repro.core.selection import EstimatorSelector
    from repro.engine.executor import ExecutionHandle, QueryExecutor
    from repro.features.vector import FeatureExtractor
    from repro.learning.mart import MARTRegressor
    from repro.optimizer.planner import Planner
    from repro.progress.base import ProgressEstimator
    from repro.progress.soa import BatchedStreamState
    from repro.service.batched import VectorizedFlush
    from repro.service.scheduler import RoundRobinScheduler
    from repro.service.scoring import BatchedSelectorScorer
    from repro.service.service import ProgressService
    from repro.service.sharded import ShardedProgressService, ShardWorker
    from repro.trace.replay import ReplayHandle

    methods = [
        ("service.sharded", ShardedProgressService, "tick", None),
        ("service.shard", ShardWorker, "tick", None),
        ("service.tick", ProgressService, "tick", None),
        ("service.scheduler", RoundRobinScheduler, "run_slice", None),
        ("service.scheduler", RoundRobinScheduler, "plan_round", None),
        ("service.batched.flush", VectorizedFlush, "flush", None),
        ("service.scoring", BatchedSelectorScorer, "resolve", _rows),
        ("core.selection", EstimatorSelector, "predict_errors", None),
        ("learning.predict", MARTRegressor, "predict", _rows),
        ("features.extract", FeatureExtractor, "extract", None),
        ("progress.soa", BatchedStreamState, "advance", None),
        ("core.monitor", ProgressMonitor, "snapshot", None),
        ("core.monitor", ProgressMonitor, "finalize", None),
        ("trace.replay", ReplayHandle, "step", None),
        ("trace.replay", ReplayHandle, "skip", None),
        ("engine.step", ExecutionHandle, "step", None),
        ("engine.execute", QueryExecutor, "execute", None),
        ("optimizer.plan", Planner, "plan", None),
        ("progress.estimate", ProgressEstimator, "estimate", None),
        ("learning.fit", MARTRegressor, "fit", None),
    ]
    for layer, cls, name, work in methods:
        recorder.patch_methods(layer, cls, name, work)
    functions = [
        ("trace.codec", transport, "reports_to_payload"),
        ("trace.codec", transport, "reports_from_payload"),
        ("trace.codec", transport, "runs_to_payload"),
        ("trace.codec", transport, "runs_from_payload"),
        ("net.http", http, "response_bytes"),
        ("net.http", http, "json_body"),
        ("net.http", http, "error_body"),
        ("net.ws", websocket, "encode_frame"),
        ("net.ws", websocket, "handshake_response"),
        ("core.training", training, "runs_to_pipelines"),
        ("core.training", training, "collect_training_data"),
        ("core.evaluate", evaluate, "evaluate_selection"),
        ("core.evaluate", evaluate, "evaluate_fixed"),
        ("core.evaluate", evaluate, "evaluate_choices"),
    ]
    for layer, module, name in functions:
        work = _payload_bytes if layer == "trace.codec" else None
        recorder.patch_function(layer, module, name, work)
