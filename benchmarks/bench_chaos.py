"""Wall-clock + simulated-fingerprint benchmark of the chaos layer.

Replays the shared serving trace (``common.py``'s substrate -- the same
trace/backend ``bench_serving.py`` and ``bench_campaign.py`` use) through
:class:`repro.serving.InferenceServer` under a seeded fault storm: Poisson
transient queue/pubsub faults, a scheduled FaaS preemption window, a
cold-start storm after a mid-day deploy, query-level retries with seeded
jittered backoff and a per-query deadline.  One record per invocation is
appended to ``BENCH_chaos.json`` at the repo root, mirroring
``bench_serving.py``:

* the *wall-clock* seconds to replay the storm (the overhead chaos adds to
  the serve loop), and
* the *simulated* reliability fingerprint (availability, goodput, retries,
  outcome/fault counts plus the full serving summary) which depends only on
  the workload, the fault plan and the seeds -- so it must stay bit-for-bit
  identical across PRs unless the chaos semantics intentionally change.

The storm is replayed **twice** and the record is only written if both
replays produce the identical summary -- the benchmark doubles as a
determinism check.  The harness also asserts the storm actually degraded
service (``availability < 1.0``): a storm nothing survives of, or one that
injects nothing, is a configuration bug, not a benchmark.  A ``--quick``
run must also reproduce the fingerprint of the quick ``seed`` record in
``BENCH_chaos.json``, or it exits non-zero without writing.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py [--quick] [--label NAME]
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
    check_pinned_fingerprint,
    SERVING_SEED,
    append_record,
    git_rev,
    serving_bench_workloads,
    serving_fsd_backend,
    serving_grid,
)

from repro import (  # noqa: E402
    ChaosConfig,
    ColdStartStorm,
    FaultPlan,
    InferenceServer,
    PoissonFaultProcess,
    PreemptionWindows,
    RetryPolicy,
    ServingConfig,
    generate_sporadic_workload,
)

RESULT_PATH = _HERE.parent / "BENCH_chaos.json"

#: the benchmark's canonical fault storm (seeded; every knob exercised).
CHAOS_SEED = 41


def bench_chaos_config() -> ChaosConfig:
    return ChaosConfig(
        plan=FaultPlan(
            processes=(
                PoissonFaultProcess("queue", rate_per_hour=2.0),
                PoissonFaultProcess("pubsub", rate_per_hour=1.0),
                PreemptionWindows(windows=((6 * 3600.0, 9 * 3600.0),)),
                ColdStartStorm(deploy_times=(12 * 3600.0,)),
            ),
            seed=CHAOS_SEED,
        ),
        retry=RetryPolicy(max_attempts=3, initial_backoff_seconds=2.0, seed=CHAOS_SEED),
        channel_retry=RetryPolicy(
            max_attempts=5, initial_backoff_seconds=0.05, seed=CHAOS_SEED + 1
        ),
        deadline_seconds=3600.0,
    )


def _serve_once(quick: bool) -> dict:
    neurons, batch_size, num_queries = serving_grid(quick)
    workload = generate_sporadic_workload(
        daily_samples=num_queries * batch_size,
        batch_size=batch_size,
        neuron_counts=neurons,
        seed=SERVING_SEED,
    )
    backend = serving_fsd_backend(serving_bench_workloads(quick))
    server = InferenceServer(backend, ServingConfig(chaos=bench_chaos_config()))
    start = time.perf_counter()
    report = server.serve(workload)
    wall_seconds = time.perf_counter() - start
    return {
        "neurons": list(neurons),
        "batch_size": batch_size,
        "num_queries": workload.num_queries,
        "wall_seconds": wall_seconds,
        "simulated": report.summary(),
    }


def _fingerprint(simulated: dict) -> str:
    canonical = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run(quick: bool = False, label: str | None = None) -> dict:
    first = _serve_once(quick)
    second = _serve_once(quick)
    if first["simulated"] != second["simulated"]:
        raise AssertionError(
            "chaos replay is non-deterministic: two serves under the same "
            "seeded fault plan produced different summaries"
        )

    chaos = first["simulated"]["chaos"]
    if chaos["availability"] is None or chaos["availability"] >= 1.0:
        raise AssertionError(
            f"the benchmark storm did not degrade service "
            f"(availability={chaos['availability']!r}); the fault plan is miscalibrated"
        )

    record = {
        "label": label or git_rev(),
        "git_rev": git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": quick,
        "fingerprint": _fingerprint(first["simulated"]),
        "replay": first,
    }

    # A failed check aborts before the history file is touched.
    append_record(
        RESULT_PATH,
        record,
        reference_check=(
            (lambda: check_pinned_fingerprint(RESULT_PATH, record["fingerprint"]))
            if quick
            else None
        ),
    )

    replay = record["replay"]
    print(f"chaos benchmark -- label={record['label']} rev={record['git_rev']}")
    print(
        f"  {replay['num_queries']} queries over sizes {replay['neurons']}: "
        f"stormed in {replay['wall_seconds']:.3f}s wall-clock "
        f"(fingerprint {record['fingerprint']}, identical across 2 replays)"
    )
    print(
        f"  reliability: availability {chaos['availability']:.3f}, "
        f"goodput {chaos['goodput_queries_per_hour']:.2f} q/h, "
        f"{chaos['retry_count']} query retries, {chaos['channel_retries']} channel retries"
    )
    print(
        f"  outcomes {chaos['outcome_counts']}, faults {chaos['fault_counts']}, "
        f"failure reasons {chaos['failure_reasons']}"
    )
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small trace only (CI smoke)")
    parser.add_argument("--label", default=None, help="trajectory label for this record")
    args = parser.parse_args()
    run(quick=args.quick, label=args.label)


if __name__ == "__main__":
    main()
