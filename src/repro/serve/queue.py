"""Multi-tenant admission control and weighted-fair job scheduling.

The queue is the service's backpressure and fairness core, and it is
deliberately plain synchronous code (the service drives it from a single
asyncio loop, so there is nothing to lock) with three properties:

- **Bounded by construction.**  `submit` either accepts a job or raises a
  typed shed error *before* anything is stored: a global cap
  (:class:`~repro.resilience.errors.ServiceSaturatedError`, HTTP 429) and
  a per-tenant cap (:class:`~repro.resilience.errors.QuotaExceededError`,
  HTTP 429).  A saturating burst therefore costs O(max_queued) memory no
  matter how long it lasts — shedding *is* the memory bound.

- **Weighted-fair, starvation-free dispatch.**  Stride scheduling: each
  tenant carries a virtual-time ``pass``; dispatch picks the eligible
  tenant (queued work, below its running cap) with the smallest pass and
  charges it ``1/weight``.  Tenants with equal weights alternate perfectly
  (each gets >= 40% of any dispatch window, the acceptance bar); a 2x
  weight gets 2x the slots; and because every dispatch advances the
  chosen tenant's pass, a backlogged tenant can never be starved by a
  flood from another.  A tenant going idle forfeits its savings: on
  re-activation its pass is advanced to the current virtual time, so you
  cannot bank credit by staying quiet and then monopolize the service.

- **Deterministic.**  Ties break on (pass, head-of-queue seq), and within
  a tenant jobs dispatch FIFO by admission ``seq`` — the same submissions
  always dispatch in the same order, which is what lets the restart test
  assert that queue positions survive recovery.

Items are duck-typed: anything with ``id``, ``tenant`` and ``seq``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Mapping, Optional

from repro.resilience.errors import (
    ConfigError,
    QuotaExceededError,
    ServiceSaturatedError,
)


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's share of the service.  Validated at construction."""

    weight: float = 1.0
    """Relative dispatch share (stride = 1/weight)."""

    max_queued: int = 8
    """Pending jobs this tenant may hold before its submissions shed."""

    max_running: int = 1
    """This tenant's concurrently running jobs cap."""

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("weight", f"must be > 0, got {self.weight}")
        if self.max_queued < 1:
            raise ConfigError("max_queued",
                              f"must be >= 1, got {self.max_queued}")
        if self.max_running < 1:
            raise ConfigError("max_running",
                              f"must be >= 1, got {self.max_running}")


class FairQueue:
    """Bounded multi-tenant queue with stride-scheduled dispatch."""

    def __init__(self, max_queued: int = 64,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Mapping[str, TenantQuota]] = None) -> None:
        if max_queued < 1:
            raise ConfigError("max_queued", f"must be >= 1, got {max_queued}")
        self.max_queued = max_queued
        self.default_quota = default_quota or TenantQuota()
        self._quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self._queues: Dict[str, Deque[Any]] = {}
        self._running: Dict[str, int] = {}
        self._pass: Dict[str, float] = {}
        self._vtime = 0.0

    # -- introspection -------------------------------------------------------

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default_quota)

    @property
    def depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues.get(tenant, ()))

    def running(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return self._running.get(tenant, 0)
        return sum(self._running.values())

    def position(self, job_id: str) -> Optional[int]:
        """0-based position of a queued job within its tenant's FIFO."""
        return self.positions().get(job_id)

    def positions(self) -> Dict[str, int]:
        """:meth:`position` of every queued job, by job id."""
        return {job.id: index for queue in self._queues.values()
                for index, job in enumerate(queue)}

    def snapshot(self) -> Dict[str, Any]:
        """The ``GET /queue`` body: per-tenant FIFOs in dispatch order."""
        return {
            "depth": self.depth,
            "max_queued": self.max_queued,
            "running": dict(self._running),
            "tenants": {
                tenant: {
                    "queued": [job.id for job in queue],
                    "weight": self.quota(tenant).weight,
                    "pass": self._pass.get(tenant, 0.0),
                }
                for tenant, queue in self._queues.items() if queue
            },
        }

    # -- admission -----------------------------------------------------------

    def admission_check(self, tenant: str) -> None:
        """Raise the typed shed error a submission from ``tenant`` would
        get, without enqueueing anything.

        Split out of :meth:`submit` for callers that must persist a job
        before it has an id (the service admits into the shared worker
        pool, which mints the ``seq``) and still shed before writing.
        """
        if self.depth >= self.max_queued:
            raise ServiceSaturatedError(
                f"queue full ({self.depth}/{self.max_queued} jobs queued); "
                "retry after the backlog drains")
        quota = self.quota(tenant)
        if self.tenant_depth(tenant) >= quota.max_queued:
            raise QuotaExceededError(
                f"tenant {tenant!r} already has "
                f"{self.tenant_depth(tenant)} queued job(s) "
                f"(quota {quota.max_queued})")

    def submit(self, job: Any) -> None:
        """Admit a job, or shed it with a typed error (nothing stored)."""
        self.admission_check(job.tenant)
        self._enqueue(job)

    def restore(self, job: Any) -> None:
        """Re-admit a recovered job, bypassing the admission caps.

        Recovery replays jobs that were *already admitted* before the
        crash — bouncing them now would turn a restart into data loss.
        Restored in ``seq`` order by the caller, so positions survive.
        """
        self._enqueue(job)

    def _enqueue(self, job: Any) -> None:
        self._activate(job.tenant)
        self._queues[job.tenant].append(job)

    def _activate(self, tenant: str) -> None:
        if tenant not in self._queues:
            self._queues[tenant] = deque()
        if not self._queues[tenant]:
            # (Re-)activation: no banked credit from idle time.
            self._pass[tenant] = max(self._pass.get(tenant, 0.0), self._vtime)

    def cancel(self, job_id: str) -> Optional[Any]:
        """Remove a queued job by id; returns it, or None if not queued."""
        for queue in self._queues.values():
            for job in queue:
                if job.id == job_id:
                    queue.remove(job)
                    return job
        return None

    # -- dispatch ------------------------------------------------------------

    def next_runnable(self) -> Optional[Any]:
        """Pop the next job to run under stride scheduling, if any.

        The caller owns the returned job's running slot until it calls
        :meth:`release` for the tenant.
        """
        best: Optional[str] = None
        best_key = None
        for tenant, queue in self._queues.items():
            if not queue:
                continue
            if self._running.get(tenant, 0) >= self.quota(tenant).max_running:
                continue
            key = (self._pass.get(tenant, 0.0), queue[0].seq)
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        if best is None:
            return None
        job = self._queues[best].popleft()
        self._vtime = self._pass.get(best, 0.0)
        self._pass[best] = self._vtime + 1.0 / self.quota(best).weight
        self._running[best] = self._running.get(best, 0) + 1
        return job

    def release(self, tenant: str) -> None:
        """Give back a running slot (job finished, crashed, or was killed)."""
        count = self._running.get(tenant, 0)
        if count <= 1:
            self._running.pop(tenant, None)
        else:
            self._running[tenant] = count - 1


__all__ = ["FairQueue", "TenantQuota"]
