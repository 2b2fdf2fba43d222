"""A tiny stdlib client for the simulation service.

``http.client`` only — the same zero-dependency rule as the server.  Used
by the chaos/e2e tests, ``examples/service_tour.py`` and anyone scripting
against a local service.  Each call opens one connection (the server is
``Connection: close``), so a client object is just an address.

Retries are opt-in (:class:`RetryPolicy`): bounded exponential backoff
with *deterministic* jitter (seeded splitmix, not ``random``), applied to
429 sheds — honouring ``Retry-After`` when the server sends one — and to
connection resets on idempotent methods only.  A reset ``POST /jobs`` is
never retried: the job may or may not have been admitted, and blind
resubmission would duplicate it.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.sim.seeds import derive_seed

#: Methods whose retry is always safe: repeating them cannot change state
#: twice (DELETE converges: cancelling a cancelled job is a no-op/404).
_IDEMPOTENT = ("GET", "DELETE")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry schedule for :class:`ServiceClient`.

    Deterministic jitter: attempt *i*'s delay is
    ``base * 2**i * (0.5 + frac(seed, i))`` capped at ``cap``, where
    ``frac`` comes from :func:`~repro.sim.seeds.derive_seed` — the same
    splitmix chain the simulator uses — so two runs of the same test
    produce the same schedule, while distinct seeds decorrelate clients
    (the thundering-herd fix jitter exists for).
    """

    retries: int = 3
    """Extra attempts after the first (0 disables retrying)."""

    base: float = 0.05
    """First backoff delay, seconds."""

    cap: float = 2.0
    """Upper bound on any single delay, ``Retry-After`` included."""

    seed: int = 0
    """Decorrelates concurrent clients; same seed, same schedule."""

    def delay(self, attempt: int,
              retry_after: Optional[float] = None) -> float:
        """Seconds to sleep before retry ``attempt`` (0-based).

        A server-sent ``Retry-After`` wins over the computed backoff —
        the server knows its backlog better than our exponent does — but
        is still capped, because tests (and impatient humans) should
        never sleep unboundedly on a hostile header.
        """
        if retry_after is not None and retry_after >= 0:
            return min(float(retry_after), self.cap)
        frac = derive_seed(self.seed, attempt) / float(2 ** 31)
        return min(self.base * (2 ** attempt) * (0.5 + frac), self.cap)


class ServiceHTTPError(RuntimeError):
    """A non-2xx response, with the server's typed error body attached."""

    def __init__(self, status: int, payload: Any,
                 headers: Optional[Dict[str, str]] = None) -> None:
        error = (payload or {}).get("error", {}) if isinstance(payload, dict) \
            else {}
        message = error.get("message", f"HTTP {status}")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.headers = headers or {}
        self.error_type = error.get("type")
        self.exit_code = error.get("exit_code")


def _retry_after(exc: ServiceHTTPError) -> Optional[float]:
    """The response's ``Retry-After`` seconds, or ``None``.

    Only the delta-seconds form is parsed (the HTTP-date form is overkill
    for a localhost service); anything unparseable is ignored rather than
    trusted.
    """
    for name, value in exc.headers.items():
        if name.lower() == "retry-after":
            try:
                return float(value)
            except (TypeError, ValueError):
                return None
    return None


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        """Retry schedule, or ``None`` (the default) for fail-fast — the
        shed tests assert on first-response 429s, so retrying is opt-in."""

    @classmethod
    def from_state_dir(cls, state_dir, timeout: float = 30.0,
                       retry: Optional[RetryPolicy] = None
                       ) -> "ServiceClient":
        """Discover the address from the state dir's ``serve.json``."""
        info = json.loads(
            (pathlib.Path(state_dir) / "serve.json").read_text())
        return cls(info["host"], info["port"], timeout=timeout, retry=retry)

    # -- plumbing ------------------------------------------------------------

    def _request(self, method: str, path: str, body: Any = None,
                 ok: Tuple[int, ...] = (200, 201)) -> Any:
        retry = self.retry or RetryPolicy(retries=0)
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body, ok)
            except ServiceHTTPError as exc:
                # 429 is the server saying "later" — retryable for every
                # method, because the request was *rejected*, not half-done.
                if exc.status != 429 or attempt >= retry.retries:
                    raise
                delay = retry.delay(attempt, _retry_after(exc))
            except (ConnectionError, socket.timeout, http.client.HTTPException,
                    OSError):
                # The connection died with the outcome unknown: only
                # idempotent methods are safe to repeat (a lost POST /jobs
                # may have been admitted; resubmitting would duplicate it).
                if method not in _IDEMPOTENT or attempt >= retry.retries:
                    raise
                delay = retry.delay(attempt)
            time.sleep(delay)
            attempt += 1

    def _request_once(self, method: str, path: str, body: Any,
                      ok: Tuple[int, ...]) -> Any:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                parsed = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError:
                parsed = raw.decode("utf-8", "replace")
            if response.status not in ok:
                raise ServiceHTTPError(response.status, parsed,
                                       headers=dict(response.getheaders()))
            return parsed
        finally:
            conn.close()

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        """The readiness body; raises :class:`ServiceHTTPError` on 503."""
        return self._request("GET", "/readyz")

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read().decode("utf-8")
            if response.status != 200:
                raise ServiceHTTPError(response.status, raw)
            return raw
        finally:
            conn.close()

    def queue(self) -> Dict[str, Any]:
        return self._request("GET", "/queue")

    def submit(self, **spec: Any) -> Dict[str, Any]:
        """Submit a job spec; returns ``{"job": ..., "position": ...}``.

        Sheds surface as :class:`ServiceHTTPError` with ``status`` 429
        (saturated/quota) or 503 (draining) and the typed error body.
        """
        return self._request("POST", "/jobs", body=spec)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait_for_state(self, job_id: str, states: Tuple[str, ...],
                       timeout: float = 120.0,
                       poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job reaches one of ``states`` (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.job(job_id)
            if status["state"] in states:
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} after "
                    f"{timeout:g}s; wanted one of {states}")
            time.sleep(poll)

    def events(self, job_id: str, timeout: Optional[float] = None
               ) -> Iterator[Tuple[str, Any]]:
        """Stream a job's SSE feed as ``(event, payload)`` pairs.

        Yields until the server sends its ``end`` event (job terminal) or
        the connection drops.  Keepalive comments are filtered out.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceHTTPError(response.status,
                                       response.read().decode("utf-8"))
            event: Optional[str] = None
            data: List[str] = []
            while True:
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keepalive
                if line.startswith("event:"):
                    event = line.split(":", 1)[1].strip()
                    continue
                if line.startswith("data:"):
                    data.append(line.split(":", 1)[1].strip())
                    continue
                if line == "" and event is not None:
                    payload: Any = "\n".join(data)
                    try:
                        payload = json.loads(payload)
                    except ValueError:
                        pass
                    yield event, payload
                    if event == "end":
                        return
                    event, data = None, []
        finally:
            conn.close()


__all__ = ["RetryPolicy", "ServiceClient", "ServiceHTTPError"]
