"""The crash-tolerant, multi-tenant simulation service (``repro serve``).

Layers (each its own module, each testable without the one above):

- :mod:`repro.serve.jobs` — the job model: validated submissions
  (:class:`JobSpec`), in-service state (:class:`Job`) and the durable
  per-job directory contract.
- :mod:`repro.serve.queue` — bounded admission + stride-scheduled
  weighted-fair dispatch (:class:`FairQueue`, :class:`TenantQuota`).
- :mod:`repro.serve.recovery` — restart-time classification of the state
  dir (:func:`recover_state`): terminal / interrupted-resumable / queued.
- :mod:`repro.serve.lease` — fenced lease files for the shared worker
  pool: CAS claims, heartbeats, zombie-write rejection.
- :mod:`repro.serve.pool` — the pool every job executes in
  (:class:`SharedPool`, :func:`run_worker`): a filesystem-backed durable
  queue with a claimable index that any number of ``repro worker``
  processes drain cooperatively, adopting crashed peers' jobs
  bit-identically.
- :mod:`repro.serve.app` — the asyncio HTTP service itself
  (:class:`SimulationService`, :func:`run_service`): the one scheduler,
  publishing its fair queue's picks to the pool workers it spawns.
- :mod:`repro.serve.client` — a stdlib client (:class:`ServiceClient`)
  for tests, examples and scripts, with opt-in deterministic retry
  (:class:`RetryPolicy`).

See DESIGN.md §10-§11 for the architecture and README for walkthroughs.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first use (PEP 562).
_EXPORTS = {
    "FairQueue": "repro.serve.queue",
    "Job": "repro.serve.jobs",
    "JobSpec": "repro.serve.jobs",
    "LeaseHandle": "repro.serve.lease",
    "LeaseState": "repro.serve.lease",
    "PoolConfig": "repro.serve.pool",
    "RecoveredJob": "repro.serve.recovery",
    "RecoveryReport": "repro.serve.recovery",
    "RetryPolicy": "repro.serve.client",
    "SERVE_INFO_FILE": "repro.serve.app",
    "ServiceClient": "repro.serve.client",
    "ServiceConfig": "repro.serve.app",
    "ServiceHTTPError": "repro.serve.client",
    "SharedPool": "repro.serve.pool",
    "SimulationService": "repro.serve.app",
    "TenantQuota": "repro.serve.queue",
    "job_id": "repro.serve.jobs",
    "known_schemes": "repro.serve.jobs",
    "pool_status": "repro.serve.pool",
    "read_lease": "repro.serve.lease",
    "recover_state": "repro.serve.recovery",
    "run_service": "repro.serve.app",
    "run_worker": "repro.serve.pool",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
