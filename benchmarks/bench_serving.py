"""Wall-clock + simulated-fingerprint benchmark of the serving layer.

Replays a full sporadic daily workload (mixed model sizes, Poisson arrivals)
through :class:`repro.serving.InferenceServer` on one shared
``CloudEnvironment`` timeline and appends one record per invocation to
``BENCH_serving.json`` at the repo root, mirroring ``bench_hotpath.py``:

* the *wall-clock* seconds to replay the trace (the number perf PRs push
  down), and
* the *simulated* fingerprints (daily cost total, p50/p95/p99 latency,
  cold/warm start counts, peak concurrency) which depend only on the
  workload and the cost model, so they must stay bit-for-bit identical
  across PRs unless the simulated semantics intentionally change.

``--coalesce-window SECONDS`` enables the serving layer's
``BatchCoalescingPolicy`` (same-model queries arriving within the window are
merged into one batch, gated by the analytical cost model); the resulting
record is policy-tagged -- its ``simulated`` block gains ``policies``,
``coalesced_query_count`` and ``execution_count`` keys -- so it is never
confused with the policy-free fingerprint, which must stay bit-identical.

``--scale`` switches to the vectorized-replay sweep: Poisson day traces up
to a million queries replayed through the columnar event core with outcome
memoisation on, recorded as a queries/second trajectory (with the exact
loop's q/s measured on a downsampled head).  Every row asserts the fast
path's head summary is bit-identical to the exact loop's under the same
cache setting; the full sweep additionally asserts the million-query replay
beats the exact loop by >= 100x, and the quick sweep exits non-zero unless its
100k-query row's ``summary_digest`` equals the first quick record's.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick] [--label NAME]
        [--coalesce-window SECONDS] [--scale]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

from common import (  # noqa: E402
    SERVING_LAYERS,
    SERVING_SEED,
    SERVING_WORKERS,
    append_record,
    check_pinned_fingerprint,
    git_rev,
    serving_bench_workloads,
    serving_fsd_backend,
    serving_grid,
    serving_scale_plan,
    worker_memory_for,
)

from repro import (  # noqa: E402
    BatchCoalescingPolicy,
    CoalescingProfile,
    InferenceServer,
    ServingConfig,
    Variant,
    generate_sporadic_workload,
)

RESULT_PATH = _HERE.parent / "BENCH_serving.json"

#: trace size of the quick ``--scale`` row whose summary digest is pinned: the
#: first quick record with a row of this size in ``BENCH_serving.json``.
SCALE_PIN_QUERIES = 100_000


def _build_server(quick, coalesce_window=None):
    """An InferenceServer over the scaled bench workloads (queue variant).

    The trace/backend substrate is shared with ``bench_campaign.py`` via
    ``common.py`` -- the campaign's Poisson/FSD cell must reproduce this
    bench's fingerprint bit-for-bit.
    """
    backend = serving_fsd_backend(serving_bench_workloads(quick))
    policies = ()
    if coalesce_window is not None:
        # Gate merging through the analytical cost model: the per-query fixed
        # charges (invocations, coordinator, per-batch polling) are what the
        # policy saves, so this predicts a win for the bench workloads.
        def profile_for(query):
            return CoalescingProfile(
                variant=Variant.QUEUE,
                workers=SERVING_WORKERS,
                layers=SERVING_LAYERS,
                per_query_runtime_seconds=2.5,
                worker_memory_mb=worker_memory_for(query.neurons),
            )

        policies = (
            BatchCoalescingPolicy(window_seconds=coalesce_window, profile_for=profile_for),
        )
    return InferenceServer(backend, ServingConfig(policies=policies))


def _replay(quick: bool, coalesce_window: float | None = None) -> dict:
    neurons, batch_size, num_queries = serving_grid(quick)
    workload = generate_sporadic_workload(
        daily_samples=num_queries * batch_size,
        batch_size=batch_size,
        neuron_counts=neurons,
        seed=SERVING_SEED,
    )
    server = _build_server(quick, coalesce_window)

    start = time.perf_counter()
    report = server.serve(workload)
    wall_seconds = time.perf_counter() - start

    summary = report.summary()
    replay = {
        "neurons": list(neurons),
        "batch_size": batch_size,
        "num_queries": workload.num_queries,
        "wall_seconds": wall_seconds,
        "simulated": summary,
    }
    if coalesce_window is not None:
        replay["coalesce_window_seconds"] = coalesce_window
    return replay


def _fmt_latency(value) -> str:
    """Percentiles are ``None`` for empty replays -- print that honestly."""
    return "n/a" if value is None else f"{value:.3f}s"


# -- the --scale sweep ---------------------------------------------------------


def _summary_digest(summary: dict) -> str:
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _scale_serve(quick: bool, workload, *, replay_mode: str, outcome_cache: bool):
    """One timed serve on a fresh backend; returns (summary, wall_seconds)."""
    backend = serving_fsd_backend(serving_bench_workloads(quick))
    server = InferenceServer(
        backend, ServingConfig(replay_mode=replay_mode, outcome_cache=outcome_cache)
    )
    start = time.perf_counter()
    report = server.serve(workload)
    wall = time.perf_counter() - start
    return report.summary(), wall


def _scale_row(quick: bool, num_queries: int, head_queries: int) -> dict:
    """One --scale sweep row: build, exact head baseline, fast-path replay.

    The exact loop replays tens of queries per second, so its baseline is
    measured on a downsampled head and reported as queries/second -- the
    same unit the fast path reports over the full trace.  The row also
    re-serves the head through both cores with identical cache settings and
    asserts the summaries are bit-identical (the fast path is a replay
    *implementation*, never a semantics change).
    """
    neurons, batch_size, _ = serving_grid(quick)

    build_start = time.perf_counter()
    workload = generate_sporadic_workload(
        daily_samples=num_queries * batch_size,
        batch_size=batch_size,
        neuron_counts=neurons,
        seed=SERVING_SEED,
    )
    build_seconds = time.perf_counter() - build_start
    head = workload.head(head_queries)

    # Exact-loop baseline on the head (cache off: the historical replay path).
    _, exact_wall = _scale_serve(quick, head, replay_mode="exact", outcome_cache=False)
    exact_qps = head.num_queries / exact_wall

    # Bit-identity gate: both cores over the head, same cache setting.
    exact_summary, _ = _scale_serve(quick, head, replay_mode="exact", outcome_cache=True)
    fast_summary, _ = _scale_serve(quick, head, replay_mode="columnar", outcome_cache=True)
    if fast_summary != exact_summary:
        diff = {
            key: (fast_summary.get(key), exact_summary.get(key))
            for key in set(fast_summary) | set(exact_summary)
            if fast_summary.get(key) != exact_summary.get(key)
        }
        raise RuntimeError(
            f"fast-path summary diverged from the exact loop on the "
            f"{head.num_queries}-query head; differing keys: {diff}"
        )

    # The fast path over the full trace: columnar event core + outcome cache.
    full_summary, fast_wall = _scale_serve(
        quick, workload, replay_mode="columnar", outcome_cache=True
    )
    fast_qps = workload.num_queries / fast_wall

    return {
        "num_queries": workload.num_queries,
        "batch_size": batch_size,
        "neurons": list(neurons),
        "build_seconds": build_seconds,
        "exact_head_queries": head.num_queries,
        "exact_head_wall_seconds": exact_wall,
        "exact_queries_per_second": exact_qps,
        "fast_wall_seconds": fast_wall,
        "fast_queries_per_second": fast_qps,
        "speedup": fast_qps / exact_qps,
        "head_bit_identical": True,
        "summary_digest": _summary_digest(full_summary),
        "cost_total": full_summary["cost_total"],
        "p95_latency_seconds": full_summary["p95_latency_seconds"],
    }


def _scale_digest(record: dict):
    """``summary_digest`` of ``record``'s pinned-size scale row (or ``None``)."""
    for row in record.get("scale", {}).get("rows", ()):
        if row["num_queries"] == SCALE_PIN_QUERIES:
            return row["summary_digest"]
    return None


def _scale_sweep(quick: bool) -> dict:
    sizes, head_queries = serving_scale_plan(quick)
    rows = [_scale_row(quick, size, head_queries) for size in sizes]
    sweep = {"head_queries": head_queries, "rows": rows}
    if not quick:
        # Acceptance gate: the million-query day must beat the exact loop by
        # two orders of magnitude in queries/second.
        largest = rows[-1]
        if largest["speedup"] < 100.0:
            raise RuntimeError(
                f"--scale speedup regression: {largest['num_queries']}-query replay "
                f"ran at {largest['fast_queries_per_second']:.0f} q/s, only "
                f"{largest['speedup']:.1f}x the exact loop (need >= 100x)"
            )
    return sweep


def run(
    quick: bool = False,
    label: str | None = None,
    coalesce_window: float | None = None,
    scale: bool = False,
) -> dict:
    record = {
        "label": label or git_rev(),
        "git_rev": git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
    }
    # --scale records carry a "scale" trajectory instead of a "replay" block,
    # so fingerprint consumers (bench_campaign/bench_planner reference checks,
    # which match on label + replay.simulated) never confuse the two.
    if scale:
        record["scale"] = _scale_sweep(quick)
    else:
        record["replay"] = _replay(quick, coalesce_window)

    # The quick scale sweep is pinned; a failed check aborts before the
    # history file is touched.
    append_record(
        RESULT_PATH,
        record,
        reference_check=(
            (
                lambda: check_pinned_fingerprint(
                    RESULT_PATH, _scale_digest(record), label=None, pinned_of=_scale_digest
                )
            )
            if scale and quick
            else None
        ),
    )

    if scale:
        sweep = record["scale"]
        print(f"serving scale sweep -- label={record['label']} rev={record['git_rev']}")
        for row in sweep["rows"]:
            print(
                f"  {row['num_queries']:>9} queries: fast path "
                f"{row['fast_queries_per_second']:.0f} q/s "
                f"({row['fast_wall_seconds']:.2f}s wall), exact loop "
                f"{row['exact_queries_per_second']:.1f} q/s on a "
                f"{row['exact_head_queries']}-query head -> {row['speedup']:.0f}x; "
                f"head summaries bit-identical, digest {row['summary_digest']}"
            )
        return record

    replay = record["replay"]
    simulated = replay["simulated"]
    print(f"serving benchmark -- label={record['label']} rev={record['git_rev']}")
    print(
        f"  {replay['num_queries']} queries over sizes {replay['neurons']}: "
        f"replayed in {replay['wall_seconds']:.3f}s wall-clock"
    )
    print(
        f"  simulated: cost ${simulated['cost_total']:.6f}, "
        f"p50 {_fmt_latency(simulated['p50_latency_seconds'])}, "
        f"p95 {_fmt_latency(simulated['p95_latency_seconds'])}, "
        f"p99 {_fmt_latency(simulated['p99_latency_seconds'])}, "
        f"{simulated['cold_start_count']} cold / {simulated['warm_start_count']} warm starts, "
        f"peak {simulated['peak_concurrent_workers']} workers"
    )
    if "policies" in simulated:
        print(
            f"  policies: {[p['name'] for p in simulated['policies']]} -- "
            f"{simulated['coalesced_query_count']} of {simulated['num_queries']} "
            f"queries coalesced into {simulated['execution_count']} executions"
        )
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small trace only (CI smoke)")
    parser.add_argument("--label", default=None, help="trajectory label for this record")
    parser.add_argument(
        "--coalesce-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="enable BatchCoalescingPolicy with this window (policy-tagged record)",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the vectorized-replay scale sweep (queries/second trajectory; "
        "full mode ends on a million-query day and asserts >= 100x over the "
        "exact loop)",
    )
    args = parser.parse_args()
    if args.scale and args.coalesce_window is not None:
        parser.error("--scale replays policy-free traces; drop --coalesce-window")
    run(
        quick=args.quick,
        label=args.label,
        coalesce_window=args.coalesce_window,
        scale=args.scale,
    )


if __name__ == "__main__":
    main()
