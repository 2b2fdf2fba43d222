"""The crash-tolerant, multi-tenant simulation service (``repro serve``).

Layers (each its own module, each testable without the one above):

- :mod:`repro.serve.jobs` — the job model: validated submissions
  (:class:`JobSpec`), in-service state (:class:`Job`), the durable per-job
  directory contract, and the job-process entry point.
- :mod:`repro.serve.queue` — bounded admission + stride-scheduled
  weighted-fair dispatch (:class:`FairQueue`, :class:`TenantQuota`).
- :mod:`repro.serve.recovery` — restart-time classification of the state
  dir (:func:`recover_state`): terminal / interrupted-resumable / queued.
- :mod:`repro.serve.lease` — fenced lease files for the shared worker
  pool: CAS claims, heartbeats, zombie-write rejection.
- :mod:`repro.serve.pool` — the horizontal pool itself
  (:class:`SharedPool`, :func:`run_worker`): a filesystem-backed durable
  queue any number of ``repro worker`` processes drain cooperatively,
  adopting crashed peers' jobs bit-identically.
- :mod:`repro.serve.app` — the asyncio HTTP service itself
  (:class:`SimulationService`, :func:`run_service`), including
  ``--workers`` pool mode.
- :mod:`repro.serve.client` — a stdlib client (:class:`ServiceClient`)
  for tests, examples and scripts, with opt-in deterministic retry
  (:class:`RetryPolicy`).

See DESIGN.md §10-§11 for the architecture and README for walkthroughs.
"""

from repro.serve.app import (
    SERVE_INFO_FILE,
    ServiceConfig,
    SimulationService,
    run_service,
)
from repro.serve.client import RetryPolicy, ServiceClient, ServiceHTTPError
from repro.serve.jobs import Job, JobSpec, job_id, known_schemes
from repro.serve.lease import LeaseHandle, LeaseState, read_lease
from repro.serve.pool import (
    PoolConfig,
    SharedPool,
    pool_status,
    run_worker,
)
from repro.serve.queue import FairQueue, TenantQuota
from repro.serve.recovery import RecoveredJob, RecoveryReport, recover_state

__all__ = [
    "FairQueue",
    "Job",
    "JobSpec",
    "LeaseHandle",
    "LeaseState",
    "PoolConfig",
    "RecoveredJob",
    "RecoveryReport",
    "RetryPolicy",
    "SERVE_INFO_FILE",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHTTPError",
    "SharedPool",
    "SimulationService",
    "TenantQuota",
    "job_id",
    "known_schemes",
    "pool_status",
    "read_lease",
    "recover_state",
    "run_service",
    "run_worker",
]
