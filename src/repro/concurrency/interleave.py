"""The interleaved serve: overlapping queries on one contended timeline.

This is the concurrency engine's integration point with the serving layer.
It runs on the serving layer's own :class:`~repro.serving.server.ServeLoop`
-- same heap, event kinds, policy hooks, admission and record emission --
and changes only how a unit is dispatched and what a completion means.
Instead of finishing each admitted unit at ``now + latency``
unconditionally, it

1. runs the unit's *solo* simulation at admission time (billing, warm pools
   and invocation records are exactly the serialized loop's -- contention
   stretches the serving-layer timeline, not the substrate's bills; see
   ROADMAP for this documented approximation),
2. collects every channel op and FaaS invocation span the execution touched
   (via the ``arbiter`` slot of the backend's :class:`~repro.cloud.HookDomain`),
3. hands the op log to the :class:`~repro.concurrency.FairShareArbiter`,
   which interleaves it with every other in-flight unit's log and emits
   boundary events back onto the loop's heap, and
4. releases the admission slot only when the unit's contended chain
   finishes -- later than its solo finish exactly when finite capacities
   bound.

Records and spans are materialised after the loop, in admission order, once
every chain's final delay is known.

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

from typing import Dict, List, Optional, Tuple

from ..serving.server import _COMPLETION, ServeLoop, ServingReport
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

    __slots__ = ("unit", "outcomes", "admitted_at", "chain", "namespace")

    def __init__(self, unit, outcomes, admitted_at, chain, namespace):
        self.unit = unit
        self.outcomes = outcomes
        self.admitted_at = admitted_at
        #: ``None`` for a zero-latency unit, which has nothing to contend for.
        self.chain = chain
        self.namespace = namespace

    @property
    def delay(self) -> float:
        return self.chain.delay if self.chain is not None else 0.0


class _InterleavedLoop(ServeLoop):
    """The serve loop with solo executions stretched by the arbiter."""

    def __init__(self, server, workload: SporadicWorkload):
        super().__init__(server, workload)
        self.arbiter = FairShareArbiter(self.config.concurrency.contention)
        self.slots: List[_Slot] = []  # admission order; records materialise from this
        self.slot_by_chain: Dict[int, _Slot] = {}
        self.inflight_namespaces: Dict[str, int] = {}

    def _reschedule(self, reschedules) -> None:
        for when, generation, chain in reschedules:
            self.push(when, _COMPLETION, ("chain", chain, generation))

    def dispatch(self, unit: Tuple[InferenceQuery, ...], now: float) -> None:
        leader = unit[0]
        namespace = f"q{leader.query_id}"
        if namespace in self.inflight_namespaces:
            raise ValueError(
                f"resource namespace collision: query id {leader.query_id} admitted "
                f"at t={now:.6f} while query id {self.inflight_namespaces[namespace]} is "
                f"still in flight under namespace '{namespace}'; interleaved "
                f"execution requires unique query ids among concurrently running "
                f"queries (duplicates would silently share per-query "
                f"queue/topic/bucket resources)"
            )
        hooks = self.backend.hooks
        collector = _OpCollector(namespace)
        hooks.arbiter = collector
        try:
            outcomes = self.backend.execute_batch(list(unit), at_time=now)
        finally:
            hooks.arbiter = None
        latency = outcomes[0].latency_seconds
        if latency > 0.0:
            chain, reschedules = self.arbiter.admit(collector.ops, now, latency)
            slot = _Slot(unit, outcomes, now, chain, namespace)
            self.slot_by_chain[chain.key] = slot
            self._reschedule(reschedules)
        else:
            slot = _Slot(unit, outcomes, now, None, namespace)
            self.push(now + latency, _COMPLETION, ("direct", slot))
        self.slots.append(slot)
        self.inflight_namespaces[namespace] = leader.query_id
        self.in_flight += 1

    def complete(self, payload, now: float) -> bool:
        if payload[0] == "chain":
            _, chain, generation = payload
            result = self.arbiter.on_event(chain, generation, now)
            if result is None:
                return False  # stale: the chain was rescheduled meanwhile
            finished, reschedules = result
            self._reschedule(reschedules)
            if not finished:
                return False  # internal boundary crossing: no admission change
            slot = self.slot_by_chain.pop(chain.key)
        else:
            slot = payload[1]
        del self.inflight_namespaces[slot.namespace]
        return True

    def serve(self) -> ServingReport:
        cost = self.run()
        for slot in self.slots:
            self.record_unit(
                slot.unit, slot.outcomes, slot.admitted_at, slot.admitted_at, delay=slot.delay
            )
        return self.report(cost, self._contention_stats())

    def _contention_stats(self) -> Optional[Dict[str, object]]:
        """The ``"concurrency"`` summary block; ``None`` when unbounded.

        Only a *bounded* contention config can stretch a timeline, so only a
        bounded config adds the key -- an unbounded interleaved serve is
        observationally identical to the serialized loop and must keep its
        fingerprints byte-for-byte.
        """
        concurrency = self.config.concurrency
        if not concurrency.contention.is_bounded:
            return None
        delays = [record.interference_seconds for record in self.records]
        return {
            "config": concurrency.describe(),
            "interfered_query_count": sum(1 for delay in delays if delay > 0.0),
            "interference_total_seconds": float(sum(delays)),
            "interference_max_seconds": float(max(delays)) if delays else 0.0,
            "interference_mean_seconds": (
                float(sum(delays) / len(delays)) if delays else None
            ),
            "resources": self.arbiter.resource_summary(),
        }


def interleaved_serve(server, workload: SporadicWorkload) -> ServingReport:
    """Replay ``workload`` with in-flight queries sharing the timeline."""
    return _InterleavedLoop(server, workload).serve()
