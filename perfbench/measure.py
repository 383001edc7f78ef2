"""One measured replay in a fresh interpreter (spawned by ``run.py``).

Run from the checkout root as ``python3 -m perfbench.measure``.  The process
sets up one workload, times one ``InferenceServer.serve`` call, checks the
outputs and prints one JSON line.  A fresh interpreter per replay means the
process-global memos (the zlib memos in ``comm/payload.py``, the serial-input
memo in ``core/engine.py``, ``_WORKLOAD_CACHE`` in ``benchmarks/common.py``)
start empty, as in a user's replay.

Modes: ``measure`` (timed replay), ``setup`` (set-up only, for extra
``setup_s`` samples), ``traced`` (replay with every layer's public functions
wrapped in spans; see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

#: where a traced replay writes its spans (ignored by git).
SPANS_DIR = ROOT / ".perfbench_out"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "traced"), required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() in the parent just before it spawned this process",
    )
    parser.add_argument("--gate", action="store_true", help="run the per-run correctness gate")
    args = parser.parse_args()

    from perfbench import workloads

    recorder = None
    if args.mode == "traced":
        from perfbench import tracing

        recorder = tracing.install()
    prepared = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    start = time.perf_counter()
    report = prepared.server.serve(prepared.trace)
    serve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "serve_s": serve_s,
        "queries": prepared.trace.num_queries,
        "replay_qps": prepared.trace.num_queries / serve_s,
        "peak_rss_mb": peak_rss_mb,
        "completed": report.completed_count,
        "summary": report.summary(),
        "sim": workloads.sim_metrics(report),
    }
    if recorder is not None:
        recorder.active = False
        out["layers"] = tracing.layer_metrics(recorder, report)
        out["coverage_problems"] = tracing.coverage_problems(recorder, args.workload)
        recorder.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    gate_start = time.perf_counter()
    out["problems"] = workloads.gate(prepared, report, full=args.gate)
    out["gate_s"] = time.perf_counter() - gate_start
    if prepared.reference is not None and args.seed == workloads.DEFAULT_SEED:
        out["sim_drift_max_rel"] = workloads.drift_max_rel(out["summary"], prepared.reference)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
