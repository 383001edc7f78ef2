"""Simulated serverless cloud substrate for the FSD-Inference reproduction.

The package provides in-process, virtually-timed equivalents of the AWS
services the paper builds on: Lambda (``faas``), SNS (``pubsub``), SQS
(``queues``), S3 (``objectstore``), EBS (``blockstore``), EC2 (``vm``), and a
metering ledger playing the role of the Cost & Usage report (``billing``).

Use :class:`repro.cloud.CloudEnvironment` as the single entry point.
"""

from .billing import (
    BillingLedger,
    CostReport,
    UsageRecord,
    SERVICE_BLOCK,
    SERVICE_ENDPOINT,
    SERVICE_FAAS,
    SERVICE_OBJECT,
    SERVICE_PUBSUB,
    SERVICE_QUEUE,
    SERVICE_VM,
)
from .blockstore import BlockStorageService, BlockVolume
from .environment import CloudEnvironment
from .errors import (
    AccessDeniedError,
    BatchTooLargeError,
    CloudError,
    ConcurrencyLimitError,
    FunctionPreemptedError,
    FunctionTimeoutError,
    InvalidRequestError,
    OutOfMemoryError,
    PayloadTooLargeError,
    ResourceAlreadyExistsError,
    ResourceNotFoundError,
    ServiceQuotaExceededError,
    ThrottlingError,
    TransientServiceError,
)
from .faas import (
    FaaSPlatform,
    FunctionConfig,
    FunctionInvocation,
    MAX_MEMORY_MB,
    MAX_TIMEOUT_SECONDS,
    MEMORY_MB_PER_VCPU,
    MIN_MEMORY_MB,
)
from .hooks import HookDomain
from .objectstore import Bucket, ObjectHandle, ObjectStorageService, StoredObject
from .pricing import EC2_HOURLY_PRICES, EC2_INSTANCE_SPECS, PriceBook
from .pubsub import (
    FilterPolicy,
    MAX_PUBLISH_BATCH,
    MAX_PUBLISH_BYTES,
    PubSubService,
    Subscription,
    Topic,
)
from .queues import (
    MAX_MESSAGE_BYTES,
    MAX_RECEIVE_BATCH,
    Queue,
    QueueMessage,
    QueueService,
)
from .timing import JitterModel, LatencyModel, VirtualClock, merge_latency_overrides
from .vm import InstanceSpec, VirtualMachine, VMService

__all__ = [
    "CloudEnvironment",
    "BillingLedger",
    "CostReport",
    "UsageRecord",
    "SERVICE_FAAS",
    "SERVICE_PUBSUB",
    "SERVICE_QUEUE",
    "SERVICE_OBJECT",
    "SERVICE_VM",
    "SERVICE_BLOCK",
    "SERVICE_ENDPOINT",
    "BlockStorageService",
    "BlockVolume",
    "CloudError",
    "AccessDeniedError",
    "BatchTooLargeError",
    "ConcurrencyLimitError",
    "HookDomain",
    "FunctionPreemptedError",
    "FunctionTimeoutError",
    "InvalidRequestError",
    "OutOfMemoryError",
    "PayloadTooLargeError",
    "ResourceAlreadyExistsError",
    "ResourceNotFoundError",
    "ServiceQuotaExceededError",
    "ThrottlingError",
    "TransientServiceError",
    "FaaSPlatform",
    "FunctionConfig",
    "FunctionInvocation",
    "MIN_MEMORY_MB",
    "MAX_MEMORY_MB",
    "MAX_TIMEOUT_SECONDS",
    "MEMORY_MB_PER_VCPU",
    "Bucket",
    "ObjectHandle",
    "ObjectStorageService",
    "StoredObject",
    "PriceBook",
    "EC2_HOURLY_PRICES",
    "EC2_INSTANCE_SPECS",
    "FilterPolicy",
    "PubSubService",
    "Subscription",
    "Topic",
    "MAX_PUBLISH_BATCH",
    "MAX_PUBLISH_BYTES",
    "Queue",
    "QueueMessage",
    "QueueService",
    "MAX_MESSAGE_BYTES",
    "MAX_RECEIVE_BATCH",
    "JitterModel",
    "LatencyModel",
    "VirtualClock",
    "merge_latency_overrides",
    "InstanceSpec",
    "VirtualMachine",
    "VMService",
]
