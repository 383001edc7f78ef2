"""The benchmark's four replay workloads and their correctness gates.

Every workload is a trace replayed on the virtual clock: arrivals follow an
open-loop schedule in simulated time (fixed before the replay starts, never
waiting on completions), served by one ``InferenceServer`` in one
single-threaded process.  Each workload loads a different layer of the stack:

* ``day-exact``: ``bench_serving.py``'s full trace (104 Poisson queries over
  24 h, mixed 256/512-neuron models, 4 workers, queue channel) through the
  default exact event loop -- the path every campaign cell runs.
* ``day-fastpath``: the same substrate over a ~100k-query Poisson day with
  ``replay_mode="columnar"`` and ``outcome_cache=True``: replay-tier lookups,
  warm-pool claim replays and the billing fold, almost no kernel work.
* ``flash-contended``: ``bench_concurrency.py``'s 104-query flash crowd under
  its bounded contention model, which puts the fair-share arbiter on the
  critical path.
* ``scaleout-object``: a 100-query Poisson day on the 1024-neuron, 8-layer,
  32-sample model with 8 workers on the *object* channel: bucket writes,
  lists and reads instead of queue publish/poll, larger SpMM blocks, and a
  hypergraph partitioning in set-up.

``WORKLOADS[name](seed)`` is the whole set-up a user pays before replaying;
``gate(prepared, report, full)`` checks the outputs after the replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from common import (
    MEMORY_OVERHEAD_MB,
    SERVING_FULL_BATCH,
    SERVING_FULL_NEURONS,
    SERVING_FULL_QUERIES,
    SERVING_SEED,
    SERVING_WORKERS,
    build_workload,
    run_engine,
    scaled_cloud,
    serving_batch_builder,
    serving_bench_workloads,
    serving_fsd_backend,
    worker_memory_for,
)

#: the arrival seed at which the pinned references below apply.
DEFAULT_SEED = SERVING_SEED

#: queries in ``day-fastpath``'s ~100k-query Poisson day.
FASTPATH_QUERIES = 100_000
#: head replayed twice (exact loop vs columnar core, cache on in both) for
#: ``day-fastpath``'s bit-identity gate, as ``bench_serving.py --scale`` does.
FASTPATH_HEAD_QUERIES = 64

#: ``bench_concurrency.py``'s bounded contention model and crowd spacing.
FLASH_CONTENTION = dict(faas_invocations=4.0, queue_capacity=2.0)
FLASH_SPACING_SECONDS = 0.25

#: ``scaleout-object``'s model, batch, cluster and trace size.
SCALEOUT_NEURONS = 1024
SCALEOUT_LAYERS = 8
SCALEOUT_SAMPLES = 32
SCALEOUT_WORKERS = 8
SCALEOUT_QUERIES = 100

#: Cost-conservation tolerance: per-record costs must sum to the report's
#: ``cost.total`` within this relative error.
COST_SUM_RTOL = 1e-9

#: ``BENCH_serving.json``'s ``pr3-event-loop`` summary: ``day-exact`` at the
#: default seed must reproduce it.
DAY_EXACT_REFERENCE = {
    "backend": "fsd",
    "num_queries": 104,
    "total_samples": 1664,
    "cost_total": 0.018020503828279417,
    "p50_latency_seconds": 2.491351052536629,
    "p95_latency_seconds": 3.5235609841620317,
    "p99_latency_seconds": 3.5235609841620317,
    "makespan_seconds": 84086.09493842961,
    "cold_start_count": 252,
    "warm_start_count": 164,
    "peak_concurrent_queries": 1,
    "peak_concurrent_workers": 4,
}

#: ``BENCH_concurrency.json``'s full (``seed-full``) contended summary:
#: ``flash-contended`` at the default seed must reproduce it.
FLASH_CONTENDED_REFERENCE = {
    "backend": "fsd",
    "num_queries": 104,
    "total_samples": 1664,
    "cost_total": 0.017743451570634543,
    "p50_latency_seconds": 137.16803660371903,
    "p95_latency_seconds": 173.63350112809312,
    "p99_latency_seconds": 174.9058643203508,
    "makespan_seconds": 187.6809620888548,
    "cold_start_count": 42,
    "warm_start_count": 374,
    "peak_concurrent_queries": 104,
    "peak_concurrent_workers": 40,
    "concurrency": {
        "config": {
            "contention": {
                "bucket_capacity": None,
                "faas_invocations": 4.0,
                "queue_capacity": 2.0,
                "topic_capacity": None,
            }
        },
        "interfered_query_count": 104,
        "interference_total_seconds": 14742.848486997795,
        "interference_max_seconds": 174.34389741815542,
        "interference_mean_seconds": 141.75815852882494,
        "resources": {
            "faas": {
                "peak_weight": 408.0,
                "capacity": 4.0,
                "peak_utilization": 102.0,
                "peak_backlog": 404.0,
            },
            "object": {"peak_weight": 5.0, "capacity": None},
            "pubsub": {"peak_weight": 3.0, "capacity": None},
            "queue": {
                "peak_weight": 1.0,
                "capacity": 2.0,
                "peak_utilization": 0.5,
                "peak_backlog": 0.0,
            },
        },
    },
}


@dataclass
class Prepared:
    """Everything set up before the timed ``serve()`` call."""

    server: "repro.InferenceServer"
    trace: "repro.SporadicWorkload"
    #: ``(bench workload, variant, workers)`` of every model the trace uses.
    engines: List[Tuple[object, "repro.Variant", int]]
    reference: Optional[dict] = None
    extra_gate: Optional[Callable[["Prepared"], List[str]]] = None


# -- set-up -------------------------------------------------------------------


def _poisson_day(num_queries: int, batch: int, neurons, seed: int):
    return repro.generate_sporadic_workload(
        daily_samples=num_queries * batch,
        batch_size=batch,
        neuron_counts=neurons,
        seed=seed,
    )


def _serving_substrate():
    """``bench_serving.py``'s prepared models and planned partitions."""
    workloads = serving_bench_workloads(False)
    for prepared in workloads.values():
        prepared.plan_for(SERVING_WORKERS)
    engines = [(workloads[n], repro.Variant.QUEUE, SERVING_WORKERS) for n in SERVING_FULL_NEURONS]
    return workloads, engines


def flash_crowd(seed: int):
    """The flash crowd: 104 queries alternating model sizes, ~0.25 s apart.

    The default seed replays ``bench_concurrency.py``'s fixed-spacing crowd,
    which the pinned reference describes; any other seed jitters every gap
    uniformly within +-50% of 0.25 s, so a held-out seed changes the inputs
    while the crowd keeps its length.
    """
    count = SERVING_FULL_QUERIES
    if seed == DEFAULT_SEED:
        arrivals = FLASH_SPACING_SECONDS * np.arange(count)
    else:
        jitter = np.random.default_rng(seed).uniform(0.5, 1.5, count - 1)
        arrivals = np.concatenate(([0.0], np.cumsum(FLASH_SPACING_SECONDS * jitter)))
    neurons = SERVING_FULL_NEURONS
    return repro.SporadicWorkload(
        queries=[
            repro.InferenceQuery(
                query_id=i,
                arrival_time=float(arrivals[i]),
                neurons=neurons[i % len(neurons)],
                samples=SERVING_FULL_BATCH,
            )
            for i in range(count)
        ]
    )


def _day_exact(seed: int) -> Prepared:
    workloads, engines = _serving_substrate()
    trace = _poisson_day(SERVING_FULL_QUERIES, SERVING_FULL_BATCH, SERVING_FULL_NEURONS, seed)
    server = repro.InferenceServer(serving_fsd_backend(workloads), repro.ServingConfig())
    return Prepared(server, trace, engines, DAY_EXACT_REFERENCE)


def _fastpath_head_identity(prepared: Prepared) -> List[str]:
    """Columnar core == exact loop on the trace head, cache on in both."""
    workloads = serving_bench_workloads(False)
    head = prepared.trace.head(FASTPATH_HEAD_QUERIES)
    summaries = {}
    for mode in ("exact", "columnar"):
        config = repro.ServingConfig(replay_mode=mode, outcome_cache=True)
        server = repro.InferenceServer(serving_fsd_backend(workloads), config)
        summaries[mode] = server.serve(head).summary()
    if summaries["exact"] != summaries["columnar"]:
        return [f"columnar head summary differs from the exact loop's: {summaries}"]
    return []


def _day_fastpath(seed: int) -> Prepared:
    workloads, engines = _serving_substrate()
    trace = _poisson_day(FASTPATH_QUERIES, SERVING_FULL_BATCH, SERVING_FULL_NEURONS, seed)
    config = repro.ServingConfig(replay_mode="columnar", outcome_cache=True)
    server = repro.InferenceServer(serving_fsd_backend(workloads), config)
    return Prepared(server, trace, engines, extra_gate=_fastpath_head_identity)


def _flash_contended(seed: int) -> Prepared:
    workloads, engines = _serving_substrate()
    config = repro.ServingConfig(
        concurrency=repro.ConcurrencyConfig(
            contention=repro.ContentionConfig(**FLASH_CONTENTION)
        )
    )
    server = repro.InferenceServer(serving_fsd_backend(workloads), config)
    return Prepared(server, flash_crowd(seed), engines, FLASH_CONTENDED_REFERENCE)


def _scaleout_object(seed: int) -> Prepared:
    prepared = build_workload(SCALEOUT_NEURONS, SCALEOUT_LAYERS, SCALEOUT_SAMPLES)
    prepared.plan_for(SCALEOUT_WORKERS)
    factory = repro.QueryWorkloadFactory(
        model_builder=lambda n: prepared.model,
        batch_builder=serving_batch_builder({SCALEOUT_NEURONS: prepared}),
    )
    backend = repro.FSDServingBackend(
        scaled_cloud(),
        factory,
        config_for=lambda n: repro.EngineConfig(
            variant=repro.Variant.OBJECT,
            workers=SCALEOUT_WORKERS,
            worker_memory_mb=worker_memory_for(n),
            memory_overhead_mb=MEMORY_OVERHEAD_MB,
        ),
        plan_for=lambda n, model: prepared.plan_for(SCALEOUT_WORKERS),
    )
    trace = _poisson_day(SCALEOUT_QUERIES, SCALEOUT_SAMPLES, (SCALEOUT_NEURONS,), seed)
    server = repro.InferenceServer(backend, repro.ServingConfig())
    engines = [(prepared, repro.Variant.OBJECT, SCALEOUT_WORKERS)]
    return Prepared(server, trace, engines)


WORKLOADS: Dict[str, Callable[[int], Prepared]] = {
    "day-exact": _day_exact,
    "day-fastpath": _day_fastpath,
    "flash-contended": _flash_contended,
    "scaleout-object": _scaleout_object,
}


# -- correctness --------------------------------------------------------------


def _record_costs(report) -> np.ndarray:
    if report.columns is not None:
        return report.columns.cost
    return np.fromiter((record.cost for record in report.records), np.float64)


def gate(prepared: Prepared, report, full: bool) -> List[str]:
    """Problems with a replay's outputs; an empty list means it passed.

    Every replay must complete all its queries and conserve cost (per-record
    costs sum to ``cost.total``).  ``full`` adds the per-run checks: one
    ``FSDInference.infer`` per model under the workload's engine config
    must match the single-process forward pass, plus the workload's own
    check (``day-fastpath``'s head bit-identity).
    """
    problems = []
    attempted = prepared.trace.num_queries
    if report.num_queries != attempted or report.completed_count != attempted:
        problems.append(
            f"{report.completed_count} of {attempted} queries completed "
            f"({report.num_queries} records)"
        )
    total = report.cost.total
    summed = float(np.sum(_record_costs(report)))
    if not abs(summed - total) <= COST_SUM_RTOL * abs(total):
        problems.append(f"per-record costs sum to {summed!r}, cost.total is {total!r}")
    if full:
        for bench_workload, variant, workers in prepared.engines:
            result = run_engine(bench_workload, variant, workers)
            expected = bench_workload.model.forward(bench_workload.batch)
            if not result.matches(expected):
                problems.append(
                    f"{variant.value} inference on the {bench_workload.neurons}-neuron "
                    f"model does not match the forward pass"
                )
        if prepared.extra_gate is not None:
            problems.extend(prepared.extra_gate(prepared))
    return problems


def drift_max_rel(summary, reference) -> float:
    """Largest relative difference between matching numbers of two summaries.

    Structural mismatches (missing keys, differing strings) count as
    infinite drift.
    """
    if isinstance(reference, dict):
        if not isinstance(summary, dict) or summary.keys() != reference.keys():
            return math.inf
        return max((drift_max_rel(summary[k], reference[k]) for k in reference), default=0.0)
    if isinstance(reference, (int, float)) and not isinstance(reference, bool):
        if not isinstance(summary, (int, float)) or isinstance(summary, bool):
            return math.inf
        if summary == reference:
            return 0.0
        return abs(summary - reference) / abs(reference) if reference else math.inf
    return 0.0 if summary == reference else math.inf


def sim_metrics(report) -> Dict[str, float]:
    """The paper's simulated end-to-end metrics of one replay."""
    return {
        "sim_latency_p50_s": report.latency_percentile(50.0),
        "sim_latency_p90_s": report.latency_percentile(90.0),
        "sim_cost_per_query_usd": report.cost.total / report.num_queries,
    }
