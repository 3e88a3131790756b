"""Simulation-as-a-service: an async request scheduler over warm backends.

The batch CLI runs one sweep per invocation; :mod:`repro.serve` turns
the same kernel surface into a long-running service. A
:class:`~repro.serve.service.Service` accepts kernel requests — JSON
over a local socket, or in process through
:meth:`Service.submit <repro.serve.service.Service.submit>` — and:

- **dedupes** them against the shared on-disk point cache
  (:class:`repro.eval.parallel.PointCache`, the same KEY_SCHEMA
  machinery the batch sweeps memoize through);
- **coalesces** identical in-flight requests onto one execution;
- **batches** compatible requests onto a pool of warm worker
  processes holding pre-constructed backend instances
  (:class:`~repro.serve.pool.WorkerPool`), keeping several batches
  in flight per worker and moving operand/result arrays through the
  zero-copy shared-memory data plane (:mod:`repro.serve.shm`) — the
  pipes carry descriptors, not array bytes;
- **schedules** with per-tenant quotas, priorities, request timeouts
  and cancellation (:class:`~repro.serve.scheduler.Scheduler` — a
  deterministic, clock-injected core unit-testable without asyncio);
- **streams** results, run statistics, and (on request) the job's
  metrics-registry snapshot back to the caller.

Results are bit-identical to a direct :func:`repro.api.run` of the
same request: workers build the operands from the request's seeded
workload spec and dispatch through the identical registry path.

Start a server with ``python -m repro.serve --socket /tmp/repro.sock``
or embed one with :class:`ServiceThread`; see ``docs/serve.md``.
"""

from repro.serve.protocol import (
    REQUEST_FIELDS,
    build_operands,
    request_fields,
    validate_request,
)
from repro.serve import shm
from repro.serve.scheduler import Scheduler, TenantQuota, Ticket
from repro.serve.service import (
    ServeConfig,
    Service,
    ServiceThread,
    SocketClient,
)

__all__ = [
    "REQUEST_FIELDS",
    "Scheduler",
    "ServeConfig",
    "Service",
    "ServiceThread",
    "SocketClient",
    "TenantQuota",
    "Ticket",
    "build_operands",
    "request_fields",
    "shm",
    "validate_request",
]
