"""Lease files with fenced ownership for the shared worker pool.

A *lease* is how one worker of a horizontal pool claims exclusive execution
of one job, with nothing but the filesystem as the coordination substrate —
the same zero-dependency rule as the rest of the service.  The design has
to survive the two classic distributed failures on a shared directory:

- **Split brain on claim.**  Two workers see the same claimable job at the
  same instant.  The claim must be a real compare-and-swap, not a
  read-modify-write of a shared file (the last atomic rename would win
  silently).
- **The zombie holder.**  A worker misses its heartbeats — paused
  (``SIGSTOP``), wedged in a syscall, or cut off — a peer reclaims the
  job, and then the original worker *comes back* and keeps writing.  Its
  late writes must be detected and rejected, never silently merged.

Both are solved with one mechanism: **monotone fencing tokens recorded as
exclusively-created files**.  Inside each job directory::

    <job_dir>/lease/
        claim-000001          # fence 1: owner record, created O_CREAT|O_EXCL
        claim-000001.hb       # fence 1's heartbeat (atomic-replaced)
        claim-000001.released # fence 1 ended cleanly (optional)
        claim-000002          # fence 2: the reclaim, and so on

- ``claim-N`` is created with ``O_CREAT | O_EXCL`` — the filesystem's only
  true CAS.  Exactly one contender can create a given fence; losers see
  ``EEXIST`` and rescan.  The *highest* fence is the lease, always.
- Heartbeats go to the per-fence ``claim-N.hb`` file.  A zombie renewing
  fence N can never regress the pool's view of fence N+1, because it never
  touches fence N+1's files — monotonicity is structural, not checked.
- Expiry is wall-clock: a fence whose heartbeat is older than the pool TTL
  (``heartbeat_interval × allowed misses``) is dead, and any peer may
  claim the next fence.  A torn or empty claim file (its writer died
  mid-claim) is treated as an unrenewed lease aged by file mtime, so a
  crash at any instant of the protocol self-heals after one TTL.
- Every durable write the holder makes (journal records, ``status.json``)
  first calls :meth:`LeaseHandle.check`, which re-reads the highest fence
  and raises :class:`~repro.resilience.errors.LeaseLostError` on mismatch.
  The residual race (check passes, reclaim lands, write lands) is closed
  by determinism, not locking: a journal ``run`` record for spec key *k*
  has exactly one possible value, so a stale duplicate is byte-equivalent
  and resume/adoption reads are unaffected.  DESIGN.md §11 carries the
  full argument.

Timestamps are ``time.time()`` (wall clock): pool peers share a filesystem
and in practice a clock; the TTL is seconds, not milliseconds, precisely so
ordinary NTP-level skew cannot cause a false reclaim.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Optional

from repro.resilience.errors import LeaseLostError, PoolCorruptError
from repro.serve.jobs import fsync_dir, read_json_tolerant, write_json_durable

#: Subdirectory of a job dir holding its claim/heartbeat files.
LEASE_DIR = "lease"

_CLAIM_PREFIX = "claim-"
_HB_SUFFIX = ".hb"
_RELEASED_SUFFIX = ".released"


def _claim_path(job_dir: pathlib.Path, fence: int) -> pathlib.Path:
    return job_dir / LEASE_DIR / f"{_CLAIM_PREFIX}{fence:06d}"


def lease_token(fence: int, owner: str) -> str:
    """The fencing token embedded in every journal/status write."""
    return f"{fence}:{owner}"


@dataclass(frozen=True)
class LeaseState:
    """The observable lease of one job: its highest fence, as read."""

    fence: int
    owner: str
    token: str
    acquired_at: float
    renewed_at: float
    beats: int
    """Heartbeat renewals recorded for this fence."""

    released: bool
    """The holder ended the lease deliberately (job terminal or drained)."""

    def age(self, now: Optional[float] = None) -> float:
        return max(0.0, (now if now is not None else time.time())
                   - self.acquired_at)

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        return max(0.0, (now if now is not None else time.time())
                   - self.renewed_at)

    def expired(self, ttl: float, now: Optional[float] = None) -> bool:
        """Dead iff unreleased and past the TTL since the last heartbeat."""
        return not self.released and self.heartbeat_age(now) > ttl

    @property
    def reclaims(self) -> int:
        """Fences before this one — each was a crash/zombie takeover."""
        return self.fence - 1

    def to_json(self) -> dict:
        now = time.time()
        return {"fence": self.fence, "owner": self.owner,
                "token": self.token, "acquired_at": self.acquired_at,
                "renewed_at": self.renewed_at, "beats": self.beats,
                "released": self.released, "age": self.age(now),
                "heartbeat_age": self.heartbeat_age(now),
                "reclaims": self.reclaims}


def read_lease(job_dir) -> Optional[LeaseState]:
    """The job's current lease (its highest fence), or ``None`` if never
    claimed.  Tolerates torn claim/heartbeat files: an unreadable claim
    still fences (its *existence* is the CAS), with mtime standing in for
    its timestamps and ``"?"`` for its owner.
    """
    lease_dir = pathlib.Path(job_dir) / LEASE_DIR
    best = -1
    try:
        for name in os.listdir(lease_dir):
            if not name.startswith(_CLAIM_PREFIX) or "." in name:
                continue
            try:
                fence = int(name[len(_CLAIM_PREFIX):])
            except ValueError:
                continue
            best = max(best, fence)
    except OSError:
        return None
    if best < 0:
        return None
    claim_path = _claim_path(job_dir, best)
    claim = read_json_tolerant(claim_path) or {}
    try:
        mtime = claim_path.stat().st_mtime
    except OSError:
        mtime = 0.0
    owner = str(claim.get("owner", "?"))
    acquired_at = float(claim.get("acquired_at", mtime))
    heartbeat = read_json_tolerant(
        claim_path.with_suffix(_HB_SUFFIX)) or {}
    renewed_at = float(heartbeat.get("renewed_at", acquired_at))
    beats = int(heartbeat.get("beats", 0))
    released = claim_path.with_suffix(_RELEASED_SUFFIX).exists()
    return LeaseState(fence=best, owner=owner,
                      token=lease_token(best, owner),
                      acquired_at=acquired_at,
                      renewed_at=max(renewed_at, acquired_at),
                      beats=beats, released=released)


class LeaseHandle:
    """One worker's live claim on one job: fence, token, renew/check.

    Constructed only by :func:`acquire`.  All methods re-read the lease
    directory — the handle deliberately holds no cached authority beyond
    its fence number, so a reclaim by a peer is always *discovered*, never
    papered over.
    """

    def __init__(self, job_dir: pathlib.Path, fence: int, owner: str,
                 acquired_at: float) -> None:
        self.job_dir = pathlib.Path(job_dir)
        self.fence = fence
        self.owner = owner
        self.acquired_at = acquired_at
        self.token = lease_token(fence, owner)
        self._beats = 0

    def current(self) -> Optional[LeaseState]:
        return read_lease(self.job_dir)

    def check(self) -> None:
        """Raise :class:`LeaseLostError` unless this fence is still the
        highest — the guard in front of every durable write."""
        state = self.current()
        if state is None or state.fence != self.fence:
            held = "no lease on record" if state is None else (
                f"fence {state.fence} is held by {state.owner!r}")
            raise LeaseLostError(
                f"lease on {self.job_dir.name} lost: this worker "
                f"({self.owner!r}) holds fence {self.fence}, but {held} — "
                "a peer adopted the job; refusing the stale write")

    def renew(self) -> None:
        """Record a heartbeat for *this fence* (never a newer one).

        Raises :class:`LeaseLostError` when the fence has moved on, so the
        heartbeat loop doubles as the zombie's earliest detection point.
        """
        self.check()
        self._beats += 1
        write_json_durable(
            _claim_path(self.job_dir, self.fence).with_suffix(_HB_SUFFIX),
            {"renewed_at": time.time(), "beats": self._beats,
             "owner": self.owner})

    def release(self) -> None:
        """End the lease deliberately; peers may claim immediately.

        Quietly does nothing if the fence already moved on (a released
        marker from a deposed holder would be a stale write).
        """
        state = self.current()
        if state is None or state.fence != self.fence:
            return
        marker = _claim_path(self.job_dir, self.fence).with_suffix(
            _RELEASED_SUFFIX)
        write_json_durable(marker, {"owner": self.owner,
                                    "released_at": time.time()})


def lapsed_fences(job_dir) -> int:
    """Fences below the current one that ended without a release: each
    is a holder that died mid-job.  Unlike :attr:`LeaseState.reclaims`,
    drain handoffs (which release) do not count."""
    lease_dir = pathlib.Path(job_dir) / LEASE_DIR
    try:
        names = set(os.listdir(lease_dir))
    except OSError:
        return 0
    fences = sorted(name for name in names
                    if name.startswith(_CLAIM_PREFIX) and "." not in name)
    return sum(1 for name in fences[:-1]
               if name + _RELEASED_SUFFIX not in names)


def acquire(job_dir, owner: str, ttl: float,
            steal: Optional[int] = None) -> Optional[LeaseHandle]:
    """Try to claim the job's next fence; ``None`` when it is held or lost
    to a racing peer (callers just rescan).

    The claim sequence is: read the highest fence; if it is live, give up;
    otherwise CAS-create ``claim-(N+1)`` with ``O_EXCL``.  Exactly one
    contender wins each fence, and a winner that dies before writing its
    owner record still fences (the empty file's mtime starts its TTL).
    ``steal`` names a live fence to claim over anyway: its holder was
    killed by the caller, or is to be fenced out (its next write fails).
    Any other live fence still refuses the claim.
    """
    if ttl <= 0:
        raise PoolCorruptError(f"lease ttl must be > 0, got {ttl}")
    job_dir = pathlib.Path(job_dir)
    lease_dir = job_dir / LEASE_DIR
    try:
        lease_dir.mkdir(exist_ok=True)
    except OSError as exc:
        raise PoolCorruptError(
            f"cannot create lease dir {lease_dir}: {exc}") from exc
    state = read_lease(job_dir)
    if (state is not None and not state.released and not state.expired(ttl)
            and state.fence != steal):
        return None
    fence = (state.fence + 1) if state is not None else 1
    claim_path = _claim_path(job_dir, fence)
    try:
        fd = os.open(str(claim_path),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return None  # lost the CAS; the winner's fence is now the lease
    except OSError as exc:
        raise PoolCorruptError(
            f"cannot create claim file {claim_path}: {exc}") from exc
    acquired_at = time.time()
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"owner": owner, "acquired_at": acquired_at,
                       "token": lease_token(fence, owner)},
                      fh, separators=(",", ":"), sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise PoolCorruptError(
            f"cannot write claim file {claim_path}: {exc}") from exc
    fsync_dir(lease_dir)
    handle = LeaseHandle(job_dir, fence, owner, acquired_at)
    handle.renew()
    return handle


__all__ = [
    "LEASE_DIR",
    "LeaseHandle",
    "LeaseState",
    "acquire",
    "lapsed_fences",
    "lease_token",
    "read_lease",
]
