"""The interleaved serve loop: overlapping queries on one contended timeline.

This is the concurrency engine's integration point with the serving layer.
It mirrors :meth:`repro.serving.InferenceServer._serve_exact` -- same heap,
same event kinds, same policy hooks, same admission semantics -- but instead
of finishing each admitted unit at ``now + latency`` unconditionally, it

1. runs the unit's *solo* simulation at admission time (billing, warm pools
   and invocation records are exactly the serialized loop's -- contention
   stretches the serving-layer timeline, not the substrate's bills; see
   ROADMAP for this documented approximation),
2. collects every channel op and FaaS invocation span the execution touched
   (via the ``arbiter`` slot of the backend's :class:`~repro.cloud.HookDomain`),
3. hands the op log to the :class:`~repro.concurrency.FairShareArbiter`,
   which interleaves it with every other in-flight unit's log and emits
   boundary events back onto the *same* server heap, and
4. releases the admission slot only when the unit's contended chain
   finishes -- later than its solo finish exactly when finite capacities
   bound.

Channel resources are namespaced per in-flight query (``"queue:q{id}:..."``),
which both preserves logical isolation across queries and surfaces the
latent collision risk of the shared engine prefix: two concurrently in-flight
queries with the same id would silently share queue/topic/bucket resources,
so admission validates namespace uniqueness and fails loudly.

Byte-identity contract: with an unbounded :class:`ContentionConfig` every
chain finishes at bit-for-bit ``admit + latency`` and all interference is
exactly ``0.0``, so the records, channel stats, cost report and summary are
identical to the serialized loop's -- the arbiter's extra heap events change
nothing observable.  Tier-A outcome memoisation is bypassed (like chaos):
interleaved serves must re-simulate every execution so the op log reflects
the true warm-pool state.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..comm import ChannelStats
from ..serving.server import (
    _ARRIVAL,
    _COMPLETION,
    _POLICY_TICK,
    QueryRecord,
    ServingReport,
    peak_overlap,
)
from ..workloads import InferenceQuery, SporadicWorkload
from .arbiter import FairShareArbiter

__all__ = ["interleaved_serve"]


class _OpCollector:
    """Collects one unit's channel/FaaS op spans during its solo execution.

    Armed in the ``arbiter`` slot of the backend's :class:`~repro.cloud.HookDomain`
    around ``execute_batch``; the duck-typed counterpart of the arbiter hooks
    in the cloud services.  Channel resources are namespaced per query;
    ``"faas"`` stays platform-global so the invocation quota binds across
    queries.
    """

    __slots__ = ("namespace", "ops")

    def __init__(self, namespace: str):
        self.namespace = namespace
        self.ops: List[Tuple[str, float, float]] = []

    def channel_op(
        self, service: str, op: str, resource: str, end: float, duration: float
    ) -> None:
        if duration > 0.0:
            self.ops.append((f"{service}:{self.namespace}:{resource}", end - duration, end))

    def invocation(self, name: str, start: float, end: float) -> None:
        if end > start:
            self.ops.append(("faas", start, end))


class _Slot:
    """One admitted unit: its solo outcomes plus its contended chain."""

    __slots__ = ("unit", "outcomes", "group", "admitted_at", "chain", "namespace", "finish")

    def __init__(self, unit, outcomes, group, admitted_at, chain, namespace):
        self.unit = unit
        self.outcomes = outcomes
        self.group = group
        self.admitted_at = admitted_at
        self.chain = chain
        self.namespace = namespace
        #: set for chain-less (zero-latency) units; chains carry their own.
        self.finish = admitted_at

    @property
    def delay(self) -> float:
        return self.chain.delay if self.chain is not None else 0.0


def interleaved_serve(server, workload: SporadicWorkload) -> ServingReport:
    """Replay ``workload`` with in-flight queries sharing the timeline."""
    config = server.config
    backend = server.backend
    concurrency = config.concurrency
    assert concurrency is not None
    contention = concurrency.contention
    arbiter = FairShareArbiter(contention)

    hooks = backend.hooks
    tracer = None
    serve_span = None
    if config.telemetry is not None:
        tracer = config.telemetry.build_tracer()
        hooks.tracer = tracer
        serve_span = tracer.begin_span("serve", track="server", start=0.0, backend=backend.name)
    policies = config.policies

    events: List[Tuple[float, int, int, object]] = []
    seq = 0
    for query in workload.iter_trace():
        heapq.heappush(events, (query.arrival_time, _ARRIVAL, seq, query))
        seq += 1

    pending: Deque[Tuple[InferenceQuery, ...]] = deque()
    channel_total = ChannelStats()
    in_flight = 0
    slots: List[_Slot] = []  # admission order; records materialize from this
    slot_by_chain: Dict[int, _Slot] = {}
    inflight_namespaces: Dict[str, int] = {}

    def current_limit() -> Optional[int]:
        limit = config.max_concurrent_queries
        for policy in policies:
            limit = policy.admission_limit(
                limit, queue_depth=len(pending), in_flight=in_flight
            )
        return limit

    def admit(now: float) -> None:
        nonlocal in_flight, seq
        while pending:
            limit = current_limit()
            if limit is not None and in_flight >= limit:
                break
            unit = pending.popleft()
            leader = unit[0]
            namespace = f"q{leader.query_id}"
            if namespace in inflight_namespaces:
                raise ValueError(
                    f"resource namespace collision: query id {leader.query_id} admitted "
                    f"at t={now:.6f} while query id {inflight_namespaces[namespace]} is "
                    f"still in flight under namespace '{namespace}'; interleaved "
                    f"execution requires unique query ids among concurrently running "
                    f"queries (duplicates would silently share per-query "
                    f"queue/topic/bucket resources)"
                )
            collector = _OpCollector(namespace)
            hooks.arbiter = collector
            try:
                outcomes = backend.execute_batch(list(unit), at_time=now)
            finally:
                hooks.arbiter = None
            group = tuple(query.query_id for query in unit) if len(unit) > 1 else ()
            if tracer is not None and len(unit) > 1:
                tracer.event("coalesced", track="server", t=now, group=list(group))
            for outcome in outcomes:
                if outcome.channel_stats is not None:
                    channel_total.accumulate(outcome.channel_stats)
            latency = outcomes[0].latency_seconds
            if latency > 0.0:
                chain, reschedules = arbiter.admit(collector.ops, now, latency)
                slot = _Slot(unit, outcomes, group, now, chain, namespace)
                slot_by_chain[chain.key] = slot
                for when, generation, rechain in reschedules:
                    heapq.heappush(events, (when, _COMPLETION, seq, ("chain", rechain, generation)))
                    seq += 1
            else:
                # Degenerate zero-latency unit: nothing to contend for.
                slot = _Slot(unit, outcomes, group, now, None, namespace)
                slot.finish = now + latency
                heapq.heappush(events, (slot.finish, _COMPLETION, seq, ("direct", slot)))
                seq += 1
            slots.append(slot)
            inflight_namespaces[namespace] = leader.query_id
            in_flight += 1

    # The tracer slot is disarmed in the ``finally``, even when a namespace
    # collision or a backend error aborts the serve.
    try:
        backend.begin(workload)
        for policy in policies:
            policy.begin(workload)
        while events:
            now, kind, _, payload = heapq.heappop(events)
            if kind == _ARRIVAL:
                query = payload
                decision = None
                for policy in policies:
                    decision = policy.on_arrival(query, now)
                    if decision is not None:
                        break
                if decision is None:
                    pending.append((query,))
                elif decision.tick_at is not None:
                    heapq.heappush(events, (decision.tick_at, _POLICY_TICK, seq, None))
                    seq += 1
            elif kind == _COMPLETION:
                if payload[0] == "chain":
                    _, chain, generation = payload
                    result = arbiter.on_event(chain, generation, now)
                    if result is None:
                        continue  # stale: the chain was rescheduled meanwhile
                    finished, reschedules = result
                    for when, new_generation, rechain in reschedules:
                        heapq.heappush(
                            events, (when, _COMPLETION, seq, ("chain", rechain, new_generation))
                        )
                        seq += 1
                    if not finished:
                        continue  # internal boundary crossing: no admission change
                    slot = slot_by_chain.pop(chain.key)
                else:
                    slot = payload[1]
                del inflight_namespaces[slot.namespace]
                in_flight -= 1
                for policy in policies:
                    policy.on_completion(now, in_flight=in_flight, queue_depth=len(pending))
            else:  # policy tick
                for policy in policies:
                    for unit in policy.on_tick(now):
                        if unit:
                            pending.append(tuple(unit))
            admit(now)
            if tracer is not None:
                tracer.gauge_sample("server.queue_depth", float(len(pending)), now)
                tracer.gauge_sample("server.in_flight", float(in_flight), now)

        cost = backend.finish()
    finally:
        if tracer is not None:
            hooks.tracer = None

    # Materialize records in admission order -- the serialized loop's record
    # order -- now that every chain's final delay is known.  With all delays
    # exactly 0.0 (unbounded contention) each finished_at equals the solo
    # ``admitted_at + latency`` bit-for-bit.
    records: List[QueryRecord] = []
    delays: List[float] = []
    for slot in slots:
        delay = slot.delay
        for query, outcome in zip(slot.unit, slot.outcomes):
            solo_finish = slot.admitted_at + outcome.latency_seconds
            finished_at = solo_finish + delay
            delays.append(delay)
            records.append(
                QueryRecord(
                    query_id=query.query_id,
                    neurons=query.neurons,
                    samples=query.samples,
                    arrival_time=query.arrival_time,
                    started_at=slot.admitted_at,
                    finished_at=finished_at,
                    cost=outcome.cost,
                    cold_starts=outcome.cold_starts,
                    warm_starts=outcome.warm_starts,
                    coalesced_group=slot.group,
                    tenant=query.tenant,
                    interference_seconds=delay,
                )
            )
            if tracer is not None:
                query_span = tracer.record_span(
                    "query",
                    track="queries",
                    start=query.arrival_time,
                    end=finished_at,
                    parent=serve_span,
                    query_id=query.query_id,
                    neurons=query.neurons,
                    samples=query.samples,
                    outcome="completed",
                    attempts=1,
                )
                tracer.record_span(
                    "attempt",
                    track="queries",
                    start=slot.admitted_at,
                    end=finished_at,
                    parent=query_span,
                    attempt=1,
                    cold_starts=outcome.cold_starts,
                    warm_starts=outcome.warm_starts,
                )
                if delay > 0.0:
                    # One span per contended wait: the stretch the arbiter
                    # added beyond the solo finish.
                    tracer.record_span(
                        "contended_wait",
                        track="queries",
                        start=solo_finish,
                        end=finished_at,
                        parent=query_span,
                        interference_seconds=delay,
                    )

    if tracer is not None:
        serve_end = max((record.finished_at for record in records), default=0.0)
        tracer.end_span(serve_span, serve_end)

    # The "concurrency" summary key is opt-in twice over: only a *bounded*
    # contention config can stretch a timeline, so only a bounded config adds
    # it -- an unbounded interleaved serve is observationally identical to
    # the serialized loop and must keep its fingerprints byte-for-byte.
    concurrency_stats: Optional[Dict[str, object]] = None
    if contention.is_bounded:
        interfered = sum(1 for delay in delays if delay > 0.0)
        concurrency_stats = {
            "config": concurrency.describe(),
            "interfered_query_count": interfered,
            "interference_total_seconds": float(sum(delays)),
            "interference_max_seconds": float(max(delays)) if delays else 0.0,
            "interference_mean_seconds": (
                float(sum(delays) / len(delays)) if delays else None
            ),
            "resources": arbiter.resource_summary(),
        }

    return ServingReport(
        backend=backend.name,
        config=config,
        horizon_seconds=workload.horizon_seconds,
        records=records,
        cost=cost,
        peak_concurrent_queries=peak_overlap(
            (record.started_at, record.finished_at) for record in records
        ),
        peak_concurrent_workers=peak_overlap(backend.worker_intervals()),
        channel_stats=channel_total,
        fault_counts={},
        telemetry=tracer,
        concurrency_stats=concurrency_stats,
    )
