"""Host wall-clock spans around the public functions of each layer.

``install()`` wraps every function in :data:`TARGETS` from outside the
program: module-level functions are replaced in *every* ``repro`` namespace
that binds them, since ``from ... import`` copies the
binding into the importing module (``claim_from_pool`` in
``serving/replaycore.py``, the sparse ops in ``core/worker.py``,
``chunk_rows``/``decode_row_payload`` in ``comm/queue_channel.py``); methods
are replaced on their class.  :func:`coverage_problems` then proves each
wrapper sat where the program looks it up.

A span carries its group name, start, end, parent span and the id of the
query being executed.  A group's self time is its spans' durations minus the
time their child spans cover; its call count counts spans not nested in a
span of the same group.  Spans stay in memory and are written out once, at
the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: the benchmark's workloads (``workloads.py`` builds them).
ALL = ("day-exact", "day-fastpath", "flash-contended", "scaleout-object")
ENGINE = ("day-exact", "scaleout-object")
QUEUE = ("day-exact", "flash-contended")
OBJECT = ("scaleout-object",)
FASTPATH = ("day-fastpath",)
FLASH = ("flash-contended",)

#: (group, module, function or Class.method, workloads that must call it).
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sparse.spmm", "repro.sparse.ops", "accumulate_spmm", ENGINE),
    # Only SparseDNN.forward (the reference pass) calls spmm; the engine
    # multiplies through accumulate_spmm, so no workload must reach it.
    ("sparse.spmm", "repro.sparse.ops", "spmm", ()),
    ("sparse.rows", "repro.sparse.matrix", "gather_rows", ENGINE),
    ("sparse.rows", "repro.sparse.matrix", "expand_rows", ENGINE),
    ("sparse.activation", "repro.sparse.ops", "add_bias_to_nonzero_structure", ENGINE),
    ("sparse.activation", "repro.sparse.ops", "relu_threshold", ENGINE),
    ("sparse.accounting", "repro.sparse.ops", "flop_count_spmm", ENGINE),
    ("sparse.accounting", "repro.sparse.matrix", "csr_nbytes", ENGINE),
    ("core.infer", "repro.core.engine", "FSDInference.infer", ENGINE),
    ("core.send_phase", "repro.core.worker", "FSIWorker.send_phase", ENGINE),
    ("core.local_compute", "repro.core.worker", "FSIWorker.local_compute", ENGINE),
    ("core.receive_phase", "repro.core.worker", "FSIWorker.receive_phase", ENGINE),
    ("core.finalize_layer", "repro.core.worker", "FSIWorker.finalize_layer", ENGINE),
    ("core.load", "repro.core.worker", "FSIWorker.load_partition", ENGINE),
    ("core.load", "repro.core.worker", "FSIWorker.load_input", ENGINE),
    ("comm.encode", "repro.comm.payload", "encode_row_payload", ENGINE),
    ("comm.encode", "repro.comm.payload", "chunk_rows", QUEUE),
    ("comm.decode", "repro.comm.payload", "decode_row_payload", ENGINE),
    ("comm.queue.send", "repro.comm.queue_channel", "QueueChannel.send", QUEUE),
    ("comm.queue.poll", "repro.comm.queue_channel", "QueueChannel.poll", QUEUE),
    ("comm.object.send", "repro.comm.object_channel", "ObjectChannel.send", OBJECT),
    ("comm.object.poll", "repro.comm.object_channel", "ObjectChannel.poll", OBJECT),
    # The queue channel fans out through Topic.publish_batch, which delivers
    # into the worker queues directly; nothing on the FSD path sends to one.
    ("cloud.queue", "repro.cloud.queues", "Queue.send", ()),
    ("cloud.queue", "repro.cloud.queues", "Queue.receive", QUEUE),
    ("cloud.queue", "repro.cloud.queues", "Queue.delete_batch", QUEUE),
    ("cloud.topic", "repro.cloud.pubsub", "Topic.publish_batch", QUEUE),
    ("cloud.bucket", "repro.cloud.objectstore", "Bucket.put_object", OBJECT),
    ("cloud.bucket", "repro.cloud.objectstore", "Bucket.get_object", OBJECT),
    ("cloud.bucket", "repro.cloud.objectstore", "Bucket.list_objects", OBJECT),
    ("cloud.faas.invoke", "repro.cloud.faas", "FaaSPlatform.start_invocation", ALL),
    ("cloud.faas.invoke", "repro.cloud.faas", "FunctionInvocation.finish", ALL),
    ("cloud.faas.claim", "repro.cloud.faas", "claim_from_pool", ALL),
    ("cloud.billing", "repro.cloud.billing", "BillingLedger.record", ALL),
    ("cloud.billing", "repro.cloud.billing", "BillingLedger.report", ALL),
    ("cloud.billing", "repro.cloud.billing", "BillingLedger.report_since", ALL),
    ("serving.serve", "repro.serving.server", "InferenceServer.serve", ALL),
    # The columnar core dispatches through execute(), never execute_batch().
    ("serving.execute", "repro.serving.backends", "ServingBackend.execute_batch",
     ("day-exact", "flash-contended", "scaleout-object")),
    ("serving.execute", "repro.serving.backends", "ServingBackend.execute", ALL),
    ("replay.lookup", "repro.serving.replaycore", "ReplayOutcomeCache.lookup", FASTPATH),
    ("replay.capture", "repro.serving.replaycore", "ReplayOutcomeCache.begin_capture", FASTPATH),
    ("replay.capture", "repro.serving.replaycore", "ReplayOutcomeCache.end_capture", FASTPATH),
    ("replay.cost_report", "repro.serving.replaycore", "ColumnarSink.cost_report", FASTPATH),
    ("replay.columnar", "repro.serving.replaycore", "columnar_serve", FASTPATH),
    ("concurrency.admit", "repro.concurrency.arbiter", "FairShareArbiter.admit", FLASH),
    ("concurrency.on_event", "repro.concurrency.arbiter", "FairShareArbiter.on_event", FLASH),
    ("concurrency.interleave", "repro.concurrency.interleave", "interleaved_serve", FLASH),
    ("partitioning.partition", "repro.partitioning.hypergraph",
     "HypergraphPartitioner.partition", OBJECT),
    ("workloads.generate", "repro.workloads.sporadic", "generate_sporadic_workload", FASTPATH),
)

#: Layers whose functions must record no call outside the named workloads.
SILENT_ELSEWHERE = {"replay": FASTPATH, "concurrency": FLASH}

GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(group for group, *_ in TARGETS))

#: cost-report services of the FSD backend, reported per query.
SERVICES = ("faas", "queue", "pubsub", "object_storage")


class Recorder:
    """In-memory span columns plus per-group and per-function tallies."""

    def __init__(self) -> None:
        self.active = False
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("q")
        self.stack: List[list] = []  # [span index, child seconds, group index]
        self.query_id = -1
        self.group_calls = [0] * len(GROUPS)
        self.group_self = [0.0] * len(GROUPS)
        self.function_calls: Dict[str, int] = {}
        self.execute_seconds: List[float] = []
        self.lookups = 0
        self.lookup_hits = 0
        self.infer_count = 0
        self.sim_compute = 0.0
        self.sim_send = 0.0
        self.sim_receive_wait = 0.0

    # -- hooks on the results of particular functions --------------------------

    def on_infer(self, result, duration: float, outermost: bool) -> None:
        workers = result.metrics.per_worker
        self.infer_count += 1
        self.sim_compute += sum(worker.compute_seconds for worker in workers)
        self.sim_send += sum(worker.send_seconds for worker in workers)
        self.sim_receive_wait += sum(worker.receive_wait_seconds for worker in workers)

    def on_execute(self, result, duration: float, outermost: bool) -> None:
        if outermost:
            self.execute_seconds.append(duration)

    def on_lookup(self, result, duration: float, outermost: bool) -> None:
        self.lookups += 1
        if result is not None:
            self.lookup_hits += 1

    def hooks(self, attr: str) -> dict:
        if attr == "FSDInference.infer":
            return dict(on_return=self.on_infer)
        if attr == "ServingBackend.execute":
            return dict(on_return=self.on_execute, query_of=lambda args: args[1].query_id)
        if attr == "ServingBackend.execute_batch":
            return dict(on_return=self.on_execute, query_of=lambda args: args[1][0].query_id)
        if attr == "ReplayOutcomeCache.lookup":
            return dict(on_return=self.on_lookup)
        return {}

    # -- spans -----------------------------------------------------------------

    def wrap(self, fn, group: int, key: str, on_return=None, query_of=None):
        """``fn`` recording one span per call while the recorder is active."""
        rec = self
        perf_counter = time.perf_counter
        calls = self.function_calls
        calls[key] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            stack = rec.stack
            parent = stack[-1] if stack else None
            index = len(rec.start)
            frame = [index, 0.0, group]
            previous_query = rec.query_id
            if query_of is not None:
                rec.query_id = query_of(args)
            rec.name.append(group)
            rec.parent.append(parent[0] if parent is not None else -1)
            rec.query.append(rec.query_id)
            rec.end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            rec.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.end[index] = end
                duration = end - start
                rec.group_self[group] += duration - frame[1]
                if parent is None:
                    rec.group_calls[group] += 1
                else:
                    parent[1] += duration
                    if parent[2] != group:
                        rec.group_calls[group] += 1
                rec.query_id = previous_query
            if on_return is not None:
                on_return(result, duration, parent is None or parent[2] != group)
            return result

        return traced

    def write(self, path: Path) -> None:
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(GROUPS),
            name=np.frombuffer(self.name, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64),
            parent=np.frombuffer(self.parent, np.int32),
            query=np.frombuffer(self.query, np.int64),
        )


def install() -> Recorder:
    """Wrap every target where the program looks it up; start recording."""
    recorder = Recorder()
    for module in sorted({module for _, module, _, _ in TARGETS}):
        importlib.import_module(module)
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for group, module_name, attr, _ in TARGETS:
        module = sys.modules[module_name]
        owner, _, name = attr.rpartition(".")
        wrap_args = (GROUPS.index(group), f"{module_name}:{attr}")
        hooks = recorder.hooks(attr)
        if owner:
            cls = getattr(module, owner)
            setattr(cls, name, recorder.wrap(getattr(cls, name), *wrap_args, **hooks))
            continue
        original = getattr(module, name)
        wrapper = recorder.wrap(original, *wrap_args, **hooks)
        for namespace in namespaces:
            for binding, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, binding, wrapper)
    recorder.active = True
    return recorder


def coverage_problems(recorder: Recorder, workload: str) -> List[str]:
    """Wrappers that saw no call where the interaction map expects calls,
    or calls where it expects none."""
    problems = []
    for group, module_name, attr, heavy in TARGETS:
        count = recorder.function_calls[f"{module_name}:{attr}"]
        if workload in heavy and count == 0:
            problems.append(f"{module_name}.{attr} recorded no call on {workload}")
        quiet_outside = SILENT_ELSEWHERE.get(group.split(".")[0])
        if quiet_outside is not None and workload not in quiet_outside and count:
            problems.append(f"{module_name}.{attr} recorded {count} calls on {workload}")
    return problems


def _percentile_ms(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


#: per-layer metrics beyond each group's ``.calls``/``.self_s``, with units.
EXTRA_UNITS = {
    "core.sim_compute_s": "sim_s",
    "core.sim_send_s": "sim_s",
    "core.sim_receive_wait_s": "sim_s",
    "comm.messages_sent": "count",
    "comm.bytes_sent": "bytes",
    "comm.poll_calls": "count",
    "comm.poll_useful_ratio": "ratio",
    "comm.put_calls": "count",
    "comm.get_calls": "count",
    "comm.list_calls": "count",
    "cloud.faas.cold_ratio": "ratio",
    **{f"cloud.sim_cost.{service}_usd": "USD/query" for service in SERVICES},
    "serving.execute.p50_ms": "ms",
    "serving.execute.p90_ms": "ms",
    "replay.hit_ratio": "ratio",
    "concurrency.interference_s": "sim_s",
}

#: every per-layer metric name the traced run reports, with its unit.
UNITS: Dict[str, str] = {
    **{f"{group}.calls": "count" for group in GROUPS},
    **{f"{group}.self_s": "s" for group in GROUPS},
    **EXTRA_UNITS,
}


def layer_metrics(rec: Recorder, report) -> Dict[str, float]:
    """Values of every :data:`UNITS` metric for the traced replay."""
    values: Dict[str, float] = {}
    for index, group in enumerate(GROUPS):
        values[f"{group}.calls"] = rec.group_calls[index]
        values[f"{group}.self_s"] = rec.group_self[index]

    infers = rec.infer_count or 1
    values["core.sim_compute_s"] = rec.sim_compute / infers
    values["core.sim_send_s"] = rec.sim_send / infers
    values["core.sim_receive_wait_s"] = rec.sim_receive_wait / infers

    stats = report.channel_stats
    values["comm.messages_sent"] = stats.messages_sent
    values["comm.bytes_sent"] = stats.bytes_sent
    values["comm.poll_calls"] = stats.poll_calls
    polls = stats.poll_calls
    values["comm.poll_useful_ratio"] = 1.0 - stats.empty_polls / polls if polls else 0.0
    values["comm.put_calls"] = stats.put_calls
    values["comm.get_calls"] = stats.get_calls
    values["comm.list_calls"] = stats.list_calls

    starts = report.cold_start_count + report.warm_start_count
    values["cloud.faas.cold_ratio"] = report.cold_start_count / starts if starts else 0.0
    for service in SERVICES:
        cost = report.cost.by_service.get(service, 0.0)
        values[f"cloud.sim_cost.{service}_usd"] = cost / report.num_queries

    values["serving.execute.p50_ms"] = _percentile_ms(rec.execute_seconds, 50.0)
    values["serving.execute.p90_ms"] = _percentile_ms(rec.execute_seconds, 90.0)
    values["replay.hit_ratio"] = rec.lookup_hits / rec.lookups if rec.lookups else 0.0
    stats = report.concurrency_stats or {}
    values["concurrency.interference_s"] = stats.get("interference_mean_seconds", 0.0)
    return values
