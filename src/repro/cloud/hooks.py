"""Per-environment mount point for the optional observers of the cloud services.

The cloud services know nothing about how faults are planned, how traces
are recorded or how contended timelines are stretched -- that lives in
:mod:`repro.chaos`, :mod:`repro.telemetry` and :mod:`repro.concurrency`.
What they share is one :class:`HookDomain` per
:class:`~repro.cloud.CloudEnvironment`: a tiny mutable holder every service
(and every queue/topic/bucket/volume it creates) keeps a reference to.
Setting a slot arms every hook of that kind in the environment at once;
setting it back to ``None`` disarms them.  The slots are independent: a
serve arms and disarms only the slots it uses.

* ``injector`` -- the chaos layer's fault injector (duck-typed: ``check``,
  ``on_faas_request``, ``preemption_kill_time``; canonically
  :class:`repro.chaos.FaultInjector`);
* ``channel_retry`` -- the communication layer's transient-retry policy
  (:class:`repro.chaos.RetryPolicy`), looked up by the channels;
* ``tracer`` -- the telemetry recorder (duck-typed: ``channel_op``,
  ``counter_add``, ``gauge_sample``, ``record_span``; canonically
  :class:`repro.telemetry.Tracer`);
* ``arbiter`` -- the interleaved serve loop's op collector (duck-typed:
  ``channel_op``, ``invocation``; see :mod:`repro.concurrency.interleave`).

With a slot empty (the default) every hook of that kind is a single
attribute read that takes the no-op branch, so an observer-off run executes
the exact same service code -- and produces the exact same clocks, bills and
fingerprints -- as before the observer existed.  detlint enforces the gate
shape (``if <hook> is not None`` before any state mutation) per slot:
DET005 for ``injector``, DET008 for ``tracer``, DET009 for ``arbiter``.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["HookDomain"]


class HookDomain:
    """Mutable observer mount shared by every service of one environment."""

    __slots__ = ("injector", "channel_retry", "tracer", "arbiter")

    def __init__(self) -> None:
        self.injector: Optional[Any] = None
        self.channel_retry: Optional[Any] = None
        self.tracer: Optional[Any] = None
        self.arbiter: Optional[Any] = None
