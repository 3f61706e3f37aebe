"""The long-running PPChecker check service (``ppchecker serve``).

A stdlib-only serving layer over :class:`repro.pipeline.Pipeline`:
a bounded job queue with backpressure, content-hash request
coalescing, a REST API returning the ``check --json`` schema, and a
Prometheus ``/metrics`` surface.  See ``docs/API.md`` ("REST API")
and ``DESIGN.md`` §10 for the design.

Embedding::

    from repro.service import ServiceConfig, start_service, ServiceClient

    handle = start_service(ServiceConfig(port=0, workers=4))
    client = ServiceClient(port=handle.port)
    report = client.check(bundle_doc)     # check --json schema
    handle.close()                        # graceful drain
"""

from repro.service.client import (
    CheckQuarantined,
    JobGone,
    ServiceBusy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.jobs import Job, JobQueue, QueueFull, ServiceDraining
from repro.service.metrics import MetricsRegistry, ServiceMetrics
from repro.service.runner import PipelineRunner, ServiceConfig
from repro.service.hashring import HashRing, ring_for, shard_name
from repro.service.transport import DEADLINE_FIELD, DEADLINE_HEADER
from repro.service.server import (
    CheckService,
    DeadlineExpired,
    ServiceHandle,
    read_port_file,
    serve,
    start_service,
)

__all__ = [
    "CheckQuarantined",
    "CheckService",
    "DEADLINE_FIELD",
    "DEADLINE_HEADER",
    "DeadlineExpired",
    "HashRing",
    "Job",
    "JobGone",
    "JobQueue",
    "MetricsRegistry",
    "PipelineRunner",
    "QueueFull",
    "ServiceBusy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDraining",
    "ServiceError",
    "ServiceHandle",
    "ServiceMetrics",
    "ServiceUnavailable",
    "read_port_file",
    "ring_for",
    "serve",
    "shard_name",
    "start_service",
]
