"""Tests for the cloud's one observer mount, :class:`repro.cloud.HookDomain`.

Locks three contracts:

1. *One domain per environment*: every service of a
   :class:`CloudEnvironment` shares the environment's domain, and the slot
   set is closed.
2. *Disarm on error*: a serve that raises leaves no slot armed, so a later
   observer-off serve on the same backend runs untouched.
3. *Independent slots*: arming and disarming one slot (the interleaver's
   per-unit ``arbiter``) never disturbs another (the serve-wide ``tracer``).
"""

import pytest

from repro import (
    CloudEnvironment,
    ConcurrencyConfig,
    EngineConfig,
    FSDServingBackend,
    GraphChallengeConfig,
    InferenceQuery,
    InferenceServer,
    QueryWorkloadFactory,
    ServingConfig,
    SporadicWorkload,
    TelemetryConfig,
    Variant,
    build_graph_challenge_model,
)
from repro.chaos import ChaosConfig, FaultPlan
from repro.cloud import HookDomain
from repro.serving import HPCServingBackend

@pytest.fixture(scope="module")
def tiny_model():
    config = GraphChallengeConfig(
        neurons=64, layers=2, nnz_per_row=4, num_communities=4, seed=7
    )
    return build_graph_challenge_model(config)


def _queue_backend(model, workers=2):
    factory = QueryWorkloadFactory(model_builder=lambda neurons: model)
    return FSDServingBackend(
        CloudEnvironment(),
        factory,
        config_for=lambda neurons: EngineConfig(variant=Variant.QUEUE, workers=workers),
        warm_keepalive_seconds=900.0,
    )


def _flash_crowd(count=8, spacing=0.01):
    return SporadicWorkload(
        queries=[
            InferenceQuery(query_id=i, arrival_time=spacing * i, neurons=64, samples=4)
            for i in range(count)
        ]
    )


def _armed(hooks):
    """The slots of ``hooks`` that are set, by name."""
    slots = HookDomain.__slots__
    return {slot: getattr(hooks, slot) for slot in slots if getattr(hooks, slot) is not None}


class TestHookDomain:
    def test_slots_default_to_none(self):
        assert _armed(HookDomain()) == {}

    def test_unknown_slot_raises(self):
        with pytest.raises(AttributeError):
            HookDomain().profiler = object()

    def test_every_service_shares_the_environment_domain(self):
        cloud = CloudEnvironment()
        hooks = cloud.hooks
        assert cloud.faas.hooks is hooks
        assert cloud.ledger._hooks is hooks
        assert cloud.queues.create_queue("q")._hooks is hooks
        assert cloud.pubsub.create_topic("t")._hooks is hooks
        assert cloud.object_storage.create_bucket("b")._hooks is hooks
        assert cloud.block_storage.create_volume("v", 1.0)._hooks is hooks

    def test_backend_hooks_follow_the_cloud(self, tiny_model):
        backend = _queue_backend(tiny_model)
        assert backend.hooks is backend.cloud.hooks

    def test_cloudless_backend_gets_a_stable_detached_domain(self):
        backend = HPCServingBackend(ranks=2)
        assert isinstance(backend.hooks, HookDomain)
        assert backend.hooks is backend.hooks


class TestDisarmOnError:
    def test_traced_interleaved_namespace_collision(self, tiny_model):
        backend = _queue_backend(tiny_model)
        workload = SporadicWorkload(
            queries=[
                InferenceQuery(query_id=0, arrival_time=0.0, neurons=64, samples=4),
                InferenceQuery(query_id=0, arrival_time=0.001, neurons=64, samples=4),
            ]
        )
        config = ServingConfig(concurrency=ConcurrencyConfig(), telemetry=TelemetryConfig())
        with pytest.raises(ValueError, match="namespace collision"):
            InferenceServer(backend, config).serve(workload)
        assert _armed(backend.cloud.hooks) == {}

    def test_chaos_serve_with_non_cloud_error(self, tiny_model, monkeypatch):
        backend = _queue_backend(tiny_model)

        def explode(queries, at_time):
            raise RuntimeError("backend bug")

        monkeypatch.setattr(backend, "execute_batch", explode)
        config = ServingConfig(
            chaos=ChaosConfig(plan=FaultPlan(processes=(), seed=1)),
            telemetry=TelemetryConfig(),
        )
        with pytest.raises(RuntimeError, match="backend bug"):
            InferenceServer(backend, config).serve(_flash_crowd(count=2))
        assert _armed(backend.cloud.hooks) == {}

    def test_traced_columnar_serve_with_backend_error(self, tiny_model, monkeypatch):
        backend = _queue_backend(tiny_model)

        def explode(query, at_time):
            raise RuntimeError("backend bug")

        monkeypatch.setattr(backend, "execute", explode)
        config = ServingConfig(replay_mode="columnar", telemetry=TelemetryConfig())
        with pytest.raises(RuntimeError, match="backend bug"):
            InferenceServer(backend, config).serve(_flash_crowd(count=2))
        assert _armed(backend.cloud.hooks) == {}


class TestSlotIndependence:
    def test_per_unit_arbiter_keeps_the_serve_tracer(self, tiny_model):
        """Clearing ``arbiter`` after each unit must not drop the cloud-side trace."""
        workload = _flash_crowd()
        serialized = InferenceServer(
            _queue_backend(tiny_model), ServingConfig(telemetry=TelemetryConfig())
        ).serve(workload)
        backend = _queue_backend(tiny_model)
        interleaved = InferenceServer(
            backend,
            ServingConfig(concurrency=ConcurrencyConfig(), telemetry=TelemetryConfig()),
        ).serve(workload)
        assert interleaved.summary() == serialized.summary()
        counters = interleaved.summary()["telemetry"]["counters"]
        for prefix in ("cloud.queue.", "cloud.pubsub.", "cloud.faas."):
            assert any(
                name.startswith(prefix) and total > 0 for name, total in counters.items()
            ), prefix
        assert _armed(backend.cloud.hooks) == {}
