"""Simulated Function-as-a-Service platform (AWS Lambda analogue).

The FaaS platform provides the compute substrate for every FSD-Inference
variant.  The simulation reproduces the Lambda characteristics that shape the
paper's design and cost model:

* configurable memory between 128 MB and 10 240 MB, with vCPU share
  proportional to memory (1 vCPU per 1 769 MB, ~5.8 vCPUs at the maximum);
* a hard maximum runtime (15 minutes) after which the invocation fails;
* cold starts on the first use of an execution environment, warm starts when
  an environment is reused;
* per-invocation and per-GB-second billing;
* no direct instance-to-instance communication -- workers must use the
  pub/sub, queue or object-storage services for IPC.

Execution environments are tracked per function as a pool of *freed-at*
timestamps.  By default (``warm_keepalive_seconds=None``) any previously
finished environment can be reused regardless of timing -- the historical
single-query behaviour where every run restarts its private timeline at
``t=0``.  When a keepalive is configured (as the serving layer does), the
cold/warm decision becomes causal on the shared timeline: an environment is
reusable only if it was freed *before* the new request arrives and the idle
gap does not exceed the keepalive, which is what makes warm-start behaviour
under sporadic daily workloads meaningful.

Invocations are represented by :class:`FunctionInvocation` objects that own a
virtual clock and expose accounting helpers (``charge_compute``,
``account_memory``).  Handlers that fit a simple call/return pattern (the
coordinator, the serial variant, the managed-endpoint baseline) can be run
directly through :meth:`FaaSPlatform.invoke`; the distributed engine instead
drives worker invocations phase by phase so that cross-worker message
causality is preserved (see ``repro.core.worker``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .billing import SERVICE_FAAS, BillingLedger
from .errors import (
    ConcurrencyLimitError,
    FunctionPreemptedError,
    FunctionTimeoutError,
    InvalidRequestError,
    OutOfMemoryError,
    ResourceAlreadyExistsError,
    ResourceNotFoundError,
)
from .hooks import HookDomain
from .pricing import PriceBook
from .timing import LatencyModel, VirtualClock

__all__ = [
    "FunctionConfig",
    "FunctionInvocation",
    "FaaSPlatform",
    "claim_from_pool",
    "MIN_MEMORY_MB",
    "MAX_MEMORY_MB",
    "MAX_TIMEOUT_SECONDS",
    "MEMORY_MB_PER_VCPU",
]

#: Smallest configurable Lambda memory size.
MIN_MEMORY_MB = 128
#: Largest configurable Lambda memory size.
MAX_MEMORY_MB = 10240
#: Maximum configurable function timeout (15 minutes).
MAX_TIMEOUT_SECONDS = 15 * 60
#: Lambda allocates one vCPU per this much memory.
MEMORY_MB_PER_VCPU = 1769.0


@dataclass(frozen=True)
class FunctionConfig:
    """Deployment-time configuration of a FaaS function."""

    name: str
    memory_mb: int = 1024
    timeout_seconds: float = MAX_TIMEOUT_SECONDS
    #: size of the deployment package / model artefacts loaded at cold start,
    #: used only to make cold starts of heavier functions slightly slower.
    package_mb: float = 50.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidRequestError("function name cannot be empty")
        if not MIN_MEMORY_MB <= self.memory_mb <= MAX_MEMORY_MB:
            raise InvalidRequestError(
                f"memory_mb must be between {MIN_MEMORY_MB} and {MAX_MEMORY_MB}, "
                f"got {self.memory_mb}"
            )
        if not 1 <= self.timeout_seconds <= MAX_TIMEOUT_SECONDS:
            raise InvalidRequestError(
                f"timeout_seconds must be between 1 and {MAX_TIMEOUT_SECONDS}, "
                f"got {self.timeout_seconds}"
            )

    @property
    def vcpus(self) -> float:
        """Fractional vCPU share allocated to each invocation."""
        return self.memory_mb / MEMORY_MB_PER_VCPU


class FunctionInvocation:
    """One running execution of a FaaS function.

    The invocation owns a :class:`VirtualClock` started at the moment user
    code begins executing (i.e. after invoke latency and cold/warm start).
    The engine advances this clock through the accounting helpers; calling
    :meth:`finish` closes the invocation, enforces the runtime limit and
    records the compute charges.
    """

    def __init__(
        self,
        config: FunctionConfig,
        platform: "FaaSPlatform",
        started_at: float,
        cold: bool,
        invocation_id: int,
    ):
        self.config = config
        self._platform = platform
        self.started_at = started_at
        self.cold = cold
        self.invocation_id = invocation_id
        self.clock = VirtualClock(started_at)
        self.peak_memory_mb = 0.0
        self.finished = False
        self.failed_reason: Optional[str] = None
        self._finish_time: Optional[float] = None

    # -- identity ------------------------------------------------------------

    @property
    def function_name(self) -> str:
        return self.config.name

    @property
    def vcpus(self) -> float:
        return self.config.vcpus

    # -- accounting helpers ------------------------------------------------------

    def charge_compute(self, flops: float) -> float:
        """Advance the clock by the time to execute ``flops`` on this function."""
        duration = self._platform.latency.faas_compute(flops, self.vcpus)
        self.clock.advance(duration)
        return duration

    def charge_duration(self, seconds: float) -> float:
        """Advance the clock by an explicit duration (serialisation, local I/O)."""
        self.clock.advance(seconds)
        return seconds

    def account_memory(self, bytes_resident: float) -> None:
        """Track peak memory and fail the invocation if it exceeds the limit."""
        mb = bytes_resident / (1024.0 * 1024.0)
        self.peak_memory_mb = max(self.peak_memory_mb, mb)
        if self.peak_memory_mb > self.config.memory_mb:
            self.failed_reason = "out_of_memory"
            raise OutOfMemoryError(self.config.name, self.peak_memory_mb, self.config.memory_mb)

    @property
    def runtime_seconds(self) -> float:
        """Elapsed runtime so far (or total runtime once finished)."""
        end = self._finish_time if self._finish_time is not None else self.clock.now
        return end - self.started_at

    def check_timeout(self) -> None:
        """Fail the invocation if it has already exceeded its runtime limit."""
        if self.runtime_seconds > self.config.timeout_seconds:
            self.failed_reason = "timeout"
            raise FunctionTimeoutError(
                self.config.name, self.runtime_seconds, self.config.timeout_seconds
            )

    def finish(self, enforce_timeout: bool = True) -> float:
        """Close the invocation, bill it, and return its total runtime."""
        if self.finished:
            return self.runtime_seconds
        injector = self._platform.hooks.injector
        if injector is not None and enforce_timeout and self.failed_reason is None:
            kill_time = injector.preemption_kill_time(
                self.function_name, self.started_at, self.clock.now
            )
            if kill_time is not None:
                # The environment was reclaimed mid-run: bill only up to the
                # kill time and never return it to the warm pool.
                self.failed_reason = "preempted"
                self.finished = True
                self._finish_time = kill_time
                self._platform._record_invocation(self)
                raise FunctionPreemptedError(self.function_name, kill_time)
        self.finished = True
        self._finish_time = self.clock.now
        self._platform._record_invocation(self)
        if enforce_timeout and self.runtime_seconds > self.config.timeout_seconds:
            self.failed_reason = "timeout"
            raise FunctionTimeoutError(
                self.config.name, self.runtime_seconds, self.config.timeout_seconds
            )
        return self.runtime_seconds


def claim_from_pool(
    pool: List[float], request_time: float, keepalive: Optional[float]
) -> bool:
    """Take one idle execution environment from ``pool``, if the timeline allows.

    The platform's warm-claim rule, factored out so the serving layer's
    replay cache can re-run recorded claim patterns against pool *copies*:
    with no keepalive any previously freed environment is reusable (legacy
    private-timeline rule); with a keepalive, expired entries are evicted in
    place and the most recently freed qualifying environment is claimed
    (LIFO, as real FaaS platforms reuse).
    """
    if not pool:
        return False
    if keepalive is None:
        pool.pop()
        return True
    pool[:] = [freed_at for freed_at in pool if request_time - freed_at <= keepalive]
    best = -1
    for index, freed_at in enumerate(pool):
        if freed_at <= request_time and (best < 0 or freed_at > pool[best]):
            best = index
    if best < 0:
        return False
    pool.pop(best)
    return True


@dataclass
class InvocationRecord:
    """Summary of a completed invocation, kept for reporting and tests."""

    function_name: str
    invocation_id: int
    started_at: float
    finished_at: float
    runtime_seconds: float
    memory_mb: int
    cold: bool
    gb_seconds: float
    cost: float
    failed_reason: Optional[str] = None


class FaaSPlatform:
    """The account-level FaaS control plane."""

    def __init__(
        self,
        ledger: BillingLedger,
        latency: LatencyModel,
        prices: PriceBook,
        concurrency_limit: int = 1000,
        warm_keepalive_seconds: Optional[float] = None,
        hooks: Optional[HookDomain] = None,
    ):
        self.ledger = ledger
        self.latency = latency
        self.prices = prices
        self.hooks = hooks or HookDomain()
        self.concurrency_limit = concurrency_limit
        #: None keeps the legacy timeless reuse rule; a number makes warm
        #: reuse depend on the idle gap between invocations (shared timeline).
        self.warm_keepalive_seconds = warm_keepalive_seconds
        self._functions: Dict[str, FunctionConfig] = {}
        self._handlers: Dict[str, Callable[..., Any]] = {}
        #: per function: freed-at timestamps of idle execution environments.
        self._warm_environments: Dict[str, List[float]] = {}
        self._active_invocations = 0
        self._next_invocation_id = 0
        self.invocation_records: List[InvocationRecord] = []
        #: when set (by the serving replay cache), every warm-pool claim and
        #: free is appended as an event tuple so outcomes can be replayed.
        self.replay_log: Optional[List[tuple]] = None

    # -- control plane ---------------------------------------------------------

    def create_function(
        self,
        config: FunctionConfig,
        handler: Optional[Callable[..., Any]] = None,
    ) -> FunctionConfig:
        if config.name in self._functions:
            raise ResourceAlreadyExistsError(f"function '{config.name}' already exists")
        self._functions[config.name] = config
        if handler is not None:
            self._handlers[config.name] = handler
        self._warm_environments[config.name] = []
        return config

    def get_function(self, name: str) -> FunctionConfig:
        try:
            return self._functions[name]
        except KeyError:
            raise ResourceNotFoundError(f"function '{name}' does not exist") from None

    def delete_function(self, name: str) -> None:
        if name not in self._functions:
            raise ResourceNotFoundError(f"function '{name}' does not exist")
        del self._functions[name]
        self._handlers.pop(name, None)
        self._warm_environments.pop(name, None)

    def list_functions(self) -> List[str]:
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    # -- data plane -----------------------------------------------------------------

    def start_invocation(
        self,
        name: str,
        invoker_clock: Optional[VirtualClock] = None,
        at_time: Optional[float] = None,
        force_cold: Optional[bool] = None,
    ) -> FunctionInvocation:
        """Begin an asynchronous invocation of function ``name``.

        ``invoker_clock`` (when given) is advanced by the invoke API latency,
        matching a parent worker or coordinator that spends time issuing the
        request.  The new invocation starts after the invoke latency plus a
        cold or warm start.
        """
        config = self.get_function(name)
        if self._active_invocations >= self.concurrency_limit:
            raise ConcurrencyLimitError(
                f"account concurrency limit of {self.concurrency_limit} reached"
            )

        if invoker_clock is not None:
            invoker_clock.advance(self.latency.faas_invoke())
            request_time = invoker_clock.now
        elif at_time is not None:
            request_time = at_time
        else:
            request_time = 0.0

        injector = self.hooks.injector
        if injector is not None:
            # May flush warm pools (deploy storms) or raise a retryable
            # preemption/transient error before any environment is claimed.
            injector.on_faas_request(self, name, request_time)

        tracer = self.hooks.tracer
        if tracer is not None:
            tracer.channel_op("faas", "invoke", name, request_time)
            # Pre-claim occupancy: what a request arriving now could reuse.
            tracer.gauge_sample(
                f"faas.warm_pool.{name}",
                self.warm_environment_count(name, request_time),
                request_time,
            )

        if force_cold is None:
            cold = not self._claim_warm_environment(name, request_time)
        else:
            cold = force_cold
            if not cold:
                self._claim_warm_environment(name, request_time)
        if self.replay_log is not None:
            self.replay_log.append(("claim", name, request_time, cold))

        startup = self.latency.faas_startup(cold, config.memory_mb + config.package_mb)
        invocation = FunctionInvocation(
            config=config,
            platform=self,
            started_at=request_time + startup,
            cold=cold,
            invocation_id=self._next_invocation_id,
        )
        self._next_invocation_id += 1
        self._active_invocations += 1
        return invocation

    def invoke(
        self,
        name: str,
        payload: Any = None,
        invoker_clock: Optional[VirtualClock] = None,
        at_time: Optional[float] = None,
    ) -> Any:
        """Synchronously run the registered handler of function ``name``.

        The handler receives ``(invocation, payload)`` and its return value is
        passed through.  This is the simple request/response path used by the
        coordinator, the serial variant and the managed-endpoint baseline.
        """
        if name not in self._handlers:
            raise ResourceNotFoundError(f"function '{name}' has no registered handler")
        invocation = self.start_invocation(name, invoker_clock=invoker_clock, at_time=at_time)
        try:
            result = self._handlers[name](invocation, payload)
        except Exception:
            if not invocation.finished:
                invocation.finish(enforce_timeout=False)
            raise
        invocation.finish()
        return result

    def _claim_warm_environment(self, name: str, request_time: float) -> bool:
        """Take one idle execution environment, if the timeline allows it.

        With no keepalive configured, any previously finished environment is
        reusable (the legacy private-timeline rule).  With a keepalive, an
        environment qualifies only when it was freed at or before
        ``request_time`` and has idled no longer than the keepalive; expired
        entries are evicted and the most recently freed qualifying
        environment is claimed (LIFO, as real FaaS platforms reuse).
        """
        pool = self._warm_environments.get(name)
        if pool is None:
            return False
        return claim_from_pool(pool, request_time, self.warm_keepalive_seconds)

    # -- bookkeeping ------------------------------------------------------------------

    def _record_invocation(self, invocation: FunctionInvocation) -> None:
        # A preempted invocation ends at its kill time (earlier than the
        # clock) and its reclaimed environment never rejoins the warm pool.
        ended_at = (
            invocation._finish_time
            if invocation._finish_time is not None
            else invocation.clock.now
        )
        tracer = self.hooks.tracer
        if tracer is not None:
            tracer.record_span(
                "invocation",
                track=f"faas:{invocation.function_name}",
                start=invocation.started_at,
                end=ended_at,
                invocation_id=invocation.invocation_id,
                cold=invocation.cold,
                failed_reason=invocation.failed_reason,
            )
            tracer.counter_add(
                "faas.cold_starts" if invocation.cold else "faas.warm_starts",
                1.0,
                ended_at,
            )
        arbiter = self.hooks.arbiter
        if arbiter is not None:
            arbiter.invocation(invocation.function_name, invocation.started_at, ended_at)
        self._active_invocations = max(0, self._active_invocations - 1)
        if invocation.failed_reason != "preempted":
            self._warm_environments.setdefault(invocation.function_name, []).append(
                ended_at
            )
            if self.replay_log is not None:
                self.replay_log.append(("free", invocation.function_name, ended_at))
        gb_seconds = (invocation.config.memory_mb / 1024.0) * invocation.runtime_seconds
        cost = (
            self.prices.faas_price_per_invocation
            + gb_seconds * self.prices.faas_price_per_gb_second
        )
        self.ledger.record(
            service=SERVICE_FAAS,
            operation="invocation",
            resource=invocation.function_name,
            quantity=1,
            cost=self.prices.faas_price_per_invocation,
            timestamp=ended_at,
        )
        self.ledger.record(
            service=SERVICE_FAAS,
            operation="gb_seconds",
            resource=invocation.function_name,
            quantity=gb_seconds,
            cost=gb_seconds * self.prices.faas_price_per_gb_second,
            timestamp=ended_at,
        )
        self.invocation_records.append(
            InvocationRecord(
                function_name=invocation.function_name,
                invocation_id=invocation.invocation_id,
                started_at=invocation.started_at,
                finished_at=ended_at,
                runtime_seconds=invocation.runtime_seconds,
                memory_mb=invocation.config.memory_mb,
                cold=invocation.cold,
                gb_seconds=gb_seconds,
                cost=cost,
                failed_reason=invocation.failed_reason,
            )
        )

    @property
    def active_invocations(self) -> int:
        return self._active_invocations

    def flush_warm_pools(self) -> None:
        """Discard every idle execution environment (a simulated deploy).

        The next invocation of every function pays a cold start -- the
        cold-start storm that follows a rolling redeploy of the fleet.
        """
        for pool in self._warm_environments.values():
            pool.clear()

    def abandon_active_invocations(self, active_before: int) -> None:
        """Forget invocations started after an ``active_invocations`` snapshot.

        Recovery hook for the serving layer: when a dispatch dies mid-flight
        (e.g. a worker invocation is preempted before the engine could finish
        its siblings), the invocations it started would otherwise hold
        concurrency slots forever.  Clamping back to the pre-dispatch count
        releases them without touching anything billed so far.
        """
        self._active_invocations = min(self._active_invocations, max(0, active_before))

    def warm_environment_count(self, name: str, at_time: Optional[float] = None) -> int:
        """Idle environments of ``name``; with ``at_time``, only those a
        request arriving then could actually reuse under the keepalive rule."""
        pool = self._warm_environments.get(name, [])
        if at_time is None or self.warm_keepalive_seconds is None:
            return len(pool)
        keepalive = self.warm_keepalive_seconds
        return sum(1 for freed_at in pool if freed_at <= at_time and at_time - freed_at <= keepalive)
