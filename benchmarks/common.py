"""Shared scaffolding for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
simulated substrate.  The paper-scale workloads (N up to 65 536 neurons,
120 layers, 10 000-sample batches, up to 62 workers) are far beyond what a
laptop-scale pure-Python run should execute per benchmark, so each paper
configuration is mapped to a scaled-down stand-in with the same *structure*
(relative model sizes, same worker sweep shape, same per-N memory story).
The mapping is documented here and in EXPERIMENTS.md; the paper-scale values
can be requested with environment variables:

* ``FSD_BENCH_NEURONS``  -- comma-separated neuron counts (default scaled set)
* ``FSD_BENCH_LAYERS``   -- layer count (default 8)
* ``FSD_BENCH_SAMPLES``  -- batch size (default 32)
* ``FSD_BENCH_WORKERS``  -- comma-separated worker counts (default 2,4,6,8)
* ``FSD_BENCH_FULL=1``   -- use the paper's full configuration (slow)

Performance note: the engine's per-layer loop computes in *compacted local
dimensions* (see "Performance architecture" in ROADMAP.md).  Simulated
latencies/costs depend only on sparsity structure, so wall-clock benchmark
work (``bench_hotpath.py``) can shrink while every simulated number stays
bit-for-bit fixed; benchmarks must never rely on wall-clock timing for the
paper's figures.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    CloudEnvironment,
    EngineConfig,
    FSDInference,
    GraphChallengeConfig,
    HypergraphPartitioner,
    InferenceResult,
    LatencyModel,
    PartitionPlan,
    Variant,
    build_graph_challenge_model,
    generate_input_batch,
)

#: scaled-down neuron counts standing in for the paper's 1024/4096/16384/65536.
SCALED_NEURONS = (256, 512, 1024, 2048)
#: which paper neuron count each scaled value represents.
SCALED_TO_PAPER = {256: 1024, 512: 4096, 1024: 16384, 2048: 65536}
#: scaled-down worker sweep standing in for the paper's 8/20/42/62.
SCALED_WORKERS = (2, 4, 6, 8)
SCALED_LAYERS = 8
SCALED_SAMPLES = 32
#: per-worker memory (MB) per scaled neuron count, shaped like the paper's
#: 1000/1500/2000/4000 MB allocations.
SCALED_WORKER_MEMORY = {256: 512, 512: 768, 1024: 1024, 2048: 2048}
#: FaaS runtime overhead assumed for the memory story (Python + numpy/scipy).
MEMORY_OVERHEAD_MB = 118.0
#: single-instance memory used for the scaled serial variant.  Together with
#: the runtime overhead this reproduces the paper's memory story: the largest
#: scaled model does not fit a single instance, the others do.
SCALED_SERIAL_MEMORY_MB = 128
#: The scaled workloads execute roughly two to three orders of magnitude less
#: arithmetic than the paper's 120-layer, 10 000-sample batches, while the
#: modelled communication latencies stay at their realistic absolute values.
#: To keep the compute-to-communication ratio of the paper-scale workloads
#: (which is what determines where parallelism starts to pay off), every
#: platform's modelled per-core arithmetic throughput is scaled down by the
#: same factor.  A full-scale run (``FSD_BENCH_FULL=1``) uses real throughputs.
COMPUTE_SCALE = 0.0005


def scaled_latency() -> LatencyModel:
    """Latency model with uniformly scaled compute throughputs (see above)."""
    if os.environ.get("FSD_BENCH_FULL") == "1":
        return LatencyModel()
    # One shared implementation of the four-field throughput scaling (the
    # serving backend specs use the same helper), so the calibration cannot
    # drift between bench-built and spec-built backends.
    from repro.serving.factories import compute_scaled_latency

    return compute_scaled_latency(COMPUTE_SCALE)


def scaled_cloud() -> CloudEnvironment:
    """A fresh cloud environment using the scaled compute calibration."""
    return CloudEnvironment(latency=scaled_latency())


def _env_ints(name: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
    raw = os.environ.get(name)
    if not raw:
        return default
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw else default


def bench_neurons() -> Tuple[int, ...]:
    if os.environ.get("FSD_BENCH_FULL") == "1":
        return (1024, 4096, 16384, 65536)
    return _env_ints("FSD_BENCH_NEURONS", SCALED_NEURONS)


def bench_workers() -> Tuple[int, ...]:
    if os.environ.get("FSD_BENCH_FULL") == "1":
        return (8, 20, 42, 62)
    return _env_ints("FSD_BENCH_WORKERS", SCALED_WORKERS)


def bench_layers() -> int:
    if os.environ.get("FSD_BENCH_FULL") == "1":
        return 120
    return _env_int("FSD_BENCH_LAYERS", SCALED_LAYERS)


def bench_samples() -> int:
    if os.environ.get("FSD_BENCH_FULL") == "1":
        return 10_000
    return _env_int("FSD_BENCH_SAMPLES", SCALED_SAMPLES)


def paper_equivalent(neurons: int) -> int:
    """The paper neuron count a scaled configuration stands in for."""
    return SCALED_TO_PAPER.get(neurons, neurons)


def worker_memory_for(neurons: int) -> Optional[int]:
    return SCALED_WORKER_MEMORY.get(neurons)


@dataclass
class BenchWorkload:
    """One prepared (model, batch, plan cache) benchmark workload."""

    neurons: int
    layers: int
    samples: int
    model: object
    batch: object
    plans: Dict[Tuple[int, str], PartitionPlan]

    def plan_for(self, workers: int, partitioner=None) -> PartitionPlan:
        partitioner = partitioner or HypergraphPartitioner(seed=1)
        key = (workers, partitioner.name)
        if key not in self.plans:
            self.plans[key] = partitioner.partition(self.model, workers)
        return self.plans[key]


_WORKLOAD_CACHE: Dict[Tuple[int, int, int], BenchWorkload] = {}


def build_workload(neurons: int, layers: Optional[int] = None, samples: Optional[int] = None) -> BenchWorkload:
    """Build (and cache) the synthetic Graph Challenge workload for ``neurons``."""
    layers = layers if layers is not None else bench_layers()
    samples = samples if samples is not None else bench_samples()
    key = (neurons, layers, samples)
    if key in _WORKLOAD_CACHE:
        return _WORKLOAD_CACHE[key]
    config = GraphChallengeConfig(
        neurons=neurons,
        layers=layers,
        nnz_per_row=min(64, max(8, neurons // 32)),
        num_communities=max(16, neurons // 32),
        community_link_fraction=0.93,
        seed=7,
    )
    model = build_graph_challenge_model(config)
    batch = generate_input_batch(neurons, samples=samples, density=0.25, seed=11)
    workload = BenchWorkload(
        neurons=neurons, layers=layers, samples=samples, model=model, batch=batch, plans={}
    )
    _WORKLOAD_CACHE[key] = workload
    return workload


def run_engine(
    workload: BenchWorkload,
    variant: Variant,
    workers: int,
    cloud: Optional[CloudEnvironment] = None,
    **config_overrides,
) -> InferenceResult:
    """Run one FSD-Inference query over ``workload`` and return the result."""
    cloud = cloud or scaled_cloud()
    if variant is Variant.SERIAL:
        config = EngineConfig(
            variant=variant,
            workers=1,
            memory_overhead_mb=MEMORY_OVERHEAD_MB,
            **config_overrides,
        )
        engine = FSDInference(cloud, config)
        return engine.infer(workload.model, workload.batch)
    config = EngineConfig(
        variant=variant,
        workers=workers,
        worker_memory_mb=config_overrides.pop("worker_memory_mb", worker_memory_for(workload.neurons)),
        memory_overhead_mb=MEMORY_OVERHEAD_MB,
        **config_overrides,
    )
    engine = FSDInference(cloud, config)
    plan = workload.plan_for(workers)
    return engine.infer(workload.model, workload.batch, plan)


def print_table(title: str, headers: List[str], rows: List[List[object]]) -> None:
    """Render a simple aligned text table (the benches print paper-style rows)."""
    formatted = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in formatted)) if formatted else len(headers[col])
        for col in range(len(headers))
    ]
    line = " | ".join(header.ljust(width) for header, width in zip(headers, widths))
    separator = "-+-".join("-" * width for width in widths)
    print(f"\n=== {title} ===")
    print(line)
    print(separator)
    for row in formatted:
        print(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def append_record(path: Path, record: dict, reference_check=None) -> None:
    """Append one benchmark record to the JSON history file at ``path``.

    Every benchmark harness shares this exact read-modify-write: a missing or
    corrupt history starts fresh, the record is appended, and the file is
    rewritten with a trailing newline.  ``reference_check`` is an optional
    zero-argument callable run *before* anything is written (the serving
    reference-fingerprint assertions of bench_campaign/bench_planner), so a
    failed cross-benchmark invariant leaves the history untouched.
    """
    if reference_check is not None:
        reference_check()
    history = {"records": []}
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            pass
    history.setdefault("records", []).append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")


def check_pinned_fingerprint(
    path: Path,
    fingerprint: str,
    label: Optional[str] = "seed",
    pinned_of: Callable[[dict], Optional[str]] = lambda record: record.get("fingerprint"),
) -> None:
    """Raise unless ``fingerprint`` equals the pinned value in ``path``.

    The pin is ``pinned_of(record)`` of the first quick record labelled
    ``label`` (any label when ``None``) for which it is not ``None``; by
    default a record's ``"fingerprint"``.  A quick run replays exactly the
    configuration that record pinned, so a change to what the serve loop
    computes fails here -- not only when two replays in one run disagree.  A
    missing reference record also fails.
    """
    history = json.loads(path.read_text()) if path.exists() else {}
    pins = [
        pinned_of(record)
        for record in history.get("records", [])
        if record.get("quick") and label in (None, record.get("label"))
    ]
    pins = [pin for pin in pins if pin is not None]
    reference = "pinned" if label is None else f"pinned '{label}'"
    if not pins:
        raise RuntimeError(f"no quick {reference} record in {path.name} to check against")
    pinned = pins[0]
    if fingerprint != pinned:
        raise RuntimeError(
            f"quick fingerprint {fingerprint} differs from the {reference} "
            f"fingerprint {pinned} in {path.name}: the simulated results changed"
        )
    print(f"  quick fingerprint matches the {reference} record ({pinned})")


def git_rev() -> str:
    """Short git revision of the repo (benchmark record provenance)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


# -- shared serving-bench substrate -------------------------------------------
#
# bench_serving.py and bench_campaign.py must replay the SAME trace through
# the SAME FSD backend: the campaign's poisson/fsd/no-policy cell is asserted
# to reproduce bench_serving's recorded fingerprint bit-for-bit, so the grid
# constants and backend construction live here, in exactly one place.

#: full serving trace: >= 100 queries of mixed model sizes over a 24 h horizon.
SERVING_FULL_NEURONS = (256, 512)
SERVING_FULL_BATCH = 16
SERVING_FULL_QUERIES = 104  # 52 queries per model size
SERVING_QUICK_NEURONS = (256,)
SERVING_QUICK_BATCH = 8
SERVING_QUICK_QUERIES = 12
SERVING_LAYERS = 6
SERVING_WORKERS = 4
#: arrival seed of the serving trace (and of the campaign's Poisson scenario).
SERVING_SEED = 29


#: ``--scale`` trace sizes (query counts) for the vectorized replay sweep.
#: The full sweep ends on a million-query Poisson day; quick mode (the CI
#: smoke) replays one ~100k-query trace.
SERVING_SCALE_SIZES_FULL = (10_000, 100_000, 1_000_000)
SERVING_SCALE_SIZES_QUICK = (100_000,)
#: queries in the downsampled head used for the exact-loop baseline + the
#: bit-identity check (the exact loop replays ~tens of queries per second,
#: so the baseline is measured on a head and reported as queries/second).
SERVING_SCALE_HEAD_FULL = 128
SERVING_SCALE_HEAD_QUICK = 64


def serving_grid(quick: bool) -> Tuple[Tuple[int, ...], int, int]:
    """(neuron counts, batch size, query count) of the serving benchmarks."""
    if quick:
        return SERVING_QUICK_NEURONS, SERVING_QUICK_BATCH, SERVING_QUICK_QUERIES
    return SERVING_FULL_NEURONS, SERVING_FULL_BATCH, SERVING_FULL_QUERIES


def serving_scale_plan(quick: bool) -> Tuple[Tuple[int, ...], int]:
    """(trace sizes, exact-head query count) of the ``--scale`` sweep."""
    if quick:
        return SERVING_SCALE_SIZES_QUICK, SERVING_SCALE_HEAD_QUICK
    return SERVING_SCALE_SIZES_FULL, SERVING_SCALE_HEAD_FULL


def serving_bench_workloads(quick: bool) -> Dict[int, BenchWorkload]:
    """The prepared per-size bench workloads the serving benchmarks share."""
    neurons, batch_size, _ = serving_grid(quick)
    return {n: build_workload(n, SERVING_LAYERS, batch_size) for n in neurons}


def serving_batch_builder(workloads: Dict[int, BenchWorkload]):
    """``QueryWorkloadFactory`` batch builder over prepared bench workloads."""

    def batch_for(neurons: int, samples: int):
        prepared = workloads[neurons].batch
        if samples == prepared.shape[1]:
            return prepared
        if samples < prepared.shape[1]:
            return prepared[:, :samples]
        # Tail-absorbing queries can exceed the prepared width; regenerate
        # with the build_workload parameters rather than silently truncating.
        return generate_input_batch(neurons, samples=samples, density=0.25, seed=11)

    return batch_for


def serving_fsd_backend(workloads: Dict[int, BenchWorkload]):
    """The serving benchmarks' FSD backend (fresh scaled cloud per call)."""
    from repro import FSDServingBackend, QueryWorkloadFactory

    factory = QueryWorkloadFactory(
        model_builder=lambda n: workloads[n].model,
        batch_builder=serving_batch_builder(workloads),
    )
    return FSDServingBackend(
        scaled_cloud(),
        factory,
        config_for=lambda n: EngineConfig(
            variant=Variant.QUEUE,
            workers=SERVING_WORKERS,
            worker_memory_mb=worker_memory_for(n),
            memory_overhead_mb=MEMORY_OVERHEAD_MB,
        ),
        plan_for=lambda n, model: workloads[n].plan_for(SERVING_WORKERS),
    )
