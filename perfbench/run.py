"""The FSD stack's benchmark: one replay workload per run, timed through
``InferenceServer.serve``.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload day-fastpath [--seed 29] [--seconds 40] [--trace 0|1]

Workloads (see ``workloads.py``): ``day-exact``, ``day-fastpath``,
``flash-contended``, ``scaleout-object``.  ``BENCHMARK.json`` runs the last
three; ``day-exact`` (the engine path of ``flash-contended`` without the
arbiter) stays runnable by hand, left out to fit the run-time budget.  Each
is an open-loop trace on the virtual clock: arrival times are fixed by
``--seed`` before the replay and never wait on completions.  ``--seed 29``
(the default) is the serving benchmarks' arrival seed, at which pinned
reference summaries apply.

Every replay runs in a fresh single-threaded interpreter
(``perfbench/measure.py``), so process-global memos start empty as in a
user's replay.

``--trace 0`` replays the workload again and again in fresh processes for
``--seconds`` and reports the medians of the end-to-end metrics:

* ``replay_qps`` -- queries replayed per host second of the ``serve()`` call
  (lazy set-up inside ``serve()`` stays timed: users pay it every replay);
* ``setup_s`` -- host seconds from process spawn to the timed call
  (imports, trace generation, model/batch build, partition planning,
  backend construction), with extra set-up-only processes so that every
  run has at least :data:`MIN_SETUPS` samples;
* ``peak_rss_mb`` -- peak resident memory of the replaying process;
* ``completed_ratio`` -- completed over attempted queries, where every query
  of a run counts as failed when any correctness gate of the run fails;
* ``sim_latency_p50_s``, ``sim_latency_p90_s`` (unit ``sim_s``: seconds of
  the virtual clock, not of the host) and ``sim_cost_per_query_usd`` -- the
  paper's simulated client latency and cost, deterministic for a seed.

``--trace 1`` makes one untraced and one traced replay and reports per-layer
call counts and self times (``tracing.py``), the tracing overhead relative
to the untraced replay, and fails unless the traced replay's summary equals
the untraced one and every wrapper saw the calls the interaction map
expects.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import ALL as WORKLOADS, UNITS as LAYER_UNITS  # noqa: E402

DEFAULT_SEED = 29
#: each run takes at least this many ``setup_s`` samples.
MIN_SETUPS = 5
#: a replay process that runs longer than this is a failure.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "replay_qps": "queries/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
    "sim_latency_p50_s": "sim_s",
    "sim_latency_p90_s": "sim_s",
    "sim_cost_per_query_usd": "USD",
}

#: single-threaded children with a fixed hash seed.
CHILD_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed correctness check)."""


def spawn(workload: str, seed: int, mode: str, gate: bool = False) -> dict:
    """Run one fresh ``perfbench.measure`` process; returns its JSON result."""
    command = [sys.executable, "-m", "perfbench.measure", "--workload", workload]
    command += ["--seed", str(seed), "--mode", mode]
    if gate:
        command.append("--gate")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} replay of {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{mode} replay of {workload} exited with {done.returncode}:\n{done.stderr}"
        )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"{mode} replay of {workload} printed no result") from exc
    result["wall_s"] = time.monotonic() - spawned_at
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_replay(index: int, replay: dict) -> None:
    print(
        f"  replay {index}: {replay['queries']} queries in {replay['serve_s']:.3f} s "
        f"({replay['replay_qps']:.2f} queries/s), set-up {replay['setup_s']:.3f} s, "
        f"peak RSS {replay['peak_rss_mb']:.1f} MB"
    )


def _replay_problems(replays: list) -> list:
    problems = [problem for replay in replays for problem in replay["problems"]]
    summaries = {json.dumps(replay["summary"], sort_keys=True) for replay in replays}
    if len(summaries) > 1:
        problems.append("replays of the same trace produced different summaries")
    return problems


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """End-to-end metrics: fresh-process replays until ``seconds`` run out."""
    deadline = time.monotonic() + seconds
    replays = []
    while True:
        replays.append(spawn(workload, seed, "measure", gate=not replays))
        _print_replay(len(replays), replays[-1])
        # The first replay also runs the per-run gate; later ones do not.
        longest = max(replay["wall_s"] - replay["gate_s"] for replay in replays)
        if time.monotonic() + longest > deadline:
            break
    setups = [replay["setup_s"] for replay in replays]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup")["setup_s"])

    problems = _replay_problems(replays)
    attempted = sum(replay["queries"] for replay in replays)
    failed = attempted if problems else sum(r["queries"] - r["completed"] for r in replays)
    sim = replays[0]["sim"]
    values = {
        "replay_qps": statistics.median(replay["replay_qps"] for replay in replays),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(replay["peak_rss_mb"] for replay in replays),
        "completed_ratio": 1.0 - failed / attempted,
        **sim,
    }
    print(f"  {len(replays)} replays, {len(setups)} set-ups; failed_ratio {failed / attempted}")
    if "sim_drift_max_rel" in replays[0]:
        print(f"  sim_drift_max_rel {replays[0]['sim_drift_max_rel']} against the pinned reference")
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return problems, attempted, failed, metrics


def trace(workload: str, seed: int) -> tuple:
    """Per-layer metrics from one traced replay beside one untraced replay."""
    untraced = spawn(workload, seed, "measure", gate=True)
    _print_replay(1, untraced)
    traced = spawn(workload, seed, "traced")
    _print_replay(2, traced)

    problems = untraced["problems"] + traced["problems"] + traced["coverage_problems"]
    if traced["summary"] != untraced["summary"]:
        problems.append("the traced replay's summary differs from the untraced one's")
    attempted = untraced["queries"] + traced["queries"]
    failed = attempted if problems else attempted - untraced["completed"] - traced["completed"]

    metrics = {name: _metric(traced["layers"][name], unit) for name, unit in LAYER_UNITS.items()}
    base = untraced["replay_qps"]
    overhead = base / traced["replay_qps"] - 1.0
    metrics["tracing.replay_qps_untraced"] = _metric(base, "queries/s")
    metrics["tracing.replay_qps_traced"] = _metric(traced["replay_qps"], "queries/s")
    metrics["tracing.overhead_ratio"] = _metric(overhead, "ratio")
    print(
        f"  tracing overhead {overhead:+.1%} of the untraced replay's serve time "
        f"(base {base:.2f} queries/s untraced, {traced['replay_qps']:.2f} traced)"
    )
    return problems, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/repro", "benchmarks/common.py") if not (ROOT / p).exists()]
    if missing:
        print(f"cannot run: {', '.join(missing)} missing from {ROOT}", file=sys.stderr)
        return 2
    # Byte-compile up front so no measured set-up pays for it.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "benchmarks", "perfbench"],
        cwd=ROOT,
        env=CHILD_ENV,
        capture_output=True,
    )
    if compiled.returncode != 0:
        print("byte-compilation failed", file=sys.stderr)
        return 2

    kind = "traced" if args.trace else "measured"
    print(f"{args.workload}, seed {args.seed}: {kind} replays")
    try:
        if args.trace:
            problems, attempted, failed, metrics = trace(args.workload, args.seed)
        else:
            problems, attempted, failed, metrics = measure(
                args.workload, args.seed, args.seconds
            )
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 2
    for problem in problems:
        print(f"  FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
