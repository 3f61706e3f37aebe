"""A thin stdlib client for the check service.

Used by the test suite, the throughput benchmark, and as the
reference for how to talk to ``ppchecker serve`` from Python.  One
:class:`ServiceClient` is safe to share across threads: calls reuse
keep-alive connections from a
:class:`~repro.service.transport.ConnectionPool`, one connection per
concurrent call.
"""

from __future__ import annotations

import time
from typing import Any

from repro.service.transport import ConnectionPool


class ServiceError(RuntimeError):
    """An error response from the service."""

    def __init__(self, status: int, payload: Any) -> None:
        self.status = status
        self.payload = payload
        detail = ""
        if isinstance(payload, dict):
            detail = payload.get("error", {}).get("message", "")
        super().__init__(f"HTTP {status}: {detail or payload}")


class ServiceBusy(ServiceError):
    """429: the job queue is full; retry after ``retry_after``."""

    def __init__(self, status: int, payload: Any,
                 retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class ServiceUnavailable(ServiceError):
    """503: the service is draining; retry after ``retry_after``
    seconds (the server derives it from its drain budget)."""

    def __init__(self, status: int, payload: Any,
                 retry_after: float = 1.0) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class JobGone(ServiceError):
    """410: the job existed but aged out of the completed-job cache;
    resubmit the bundle to recompute it."""


class CheckQuarantined(ServiceError):
    """422: the check failed; ``error`` is the structured
    :class:`~repro.core.report.AppFailure` document."""

    def __init__(self, status: int, payload: Any) -> None:
        super().__init__(status, payload)
        self.error = (payload.get("error", {})
                      if isinstance(payload, dict) else {})


class ServiceClient:
    """Talk to one ``ppchecker serve`` instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8742,
                 timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._pool = ConnectionPool(timeout)

    # -- transport ---------------------------------------------------------

    def request(self, method: str, path: str, doc: Any = None,
                ) -> tuple[int, dict[str, str], Any]:
        """One round-trip; returns ``(status, headers, payload)``
        with the payload JSON-decoded when the response is JSON."""
        return self._pool.request(self.host, self.port, method, path,
                                  doc)

    def close(self) -> None:
        """Close the idle kept connections (the client stays usable)."""
        self._pool.close()

    def _raise_for(self, status: int, headers: dict[str, str],
                   payload: Any) -> None:
        if status == 429:
            raise ServiceBusy(
                status, payload,
                retry_after=float(headers.get("Retry-After", 1)))
        if status == 503:
            raise ServiceUnavailable(
                status, payload,
                retry_after=float(headers.get("Retry-After", 1)))
        if status == 422:
            raise CheckQuarantined(status, payload)
        if status == 410:
            raise JobGone(status, payload)
        raise ServiceError(status, payload)

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        status, headers, payload = self.request("GET", "/healthz")
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload

    def metrics_text(self) -> str:
        status, headers, payload = self.request("GET", "/metrics")
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload

    def version(self) -> str:
        return self.healthz()["version"]

    def check(self, bundle_doc: dict) -> dict:
        """Synchronous check; the report document on success, a
        :class:`CheckQuarantined` on a quarantined check."""
        status, headers, payload = self.request(
            "POST", "/v1/check", bundle_doc)
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload

    def submit(self, bundle_doc: dict) -> dict:
        """Asynchronous submit; the job stub (``id``, ``key``,
        ``state``, ``coalesced``)."""
        status, headers, payload = self.request(
            "POST", "/v1/jobs", bundle_doc)
        if status != 202:
            self._raise_for(status, headers, payload)
        return payload

    def job(self, job_id: str) -> dict:
        status, headers, payload = self.request(
            "GET", f"/v1/jobs/{job_id}")
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload

    def wait(self, job_id: str, timeout: float = 60.0,
             interval: float = 0.05) -> dict:
        """Poll until the job is terminal; its final document."""
        deadline = time.monotonic() + timeout
        while True:
            doc = self.job(job_id)
            if doc["state"] in ("completed", "quarantined",
                                "deadlettered"):
                return doc
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout:g}s")
            time.sleep(interval)

    def batch(self, bundle_docs: list[dict]) -> dict:
        status, headers, payload = self.request(
            "POST", "/v1/batch", {"bundles": bundle_docs})
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload

    def deadletter(self) -> dict:
        """The parked poison-pill jobs (``serve --state-dir`` only;
        empty list on an in-memory service)."""
        status, headers, payload = self.request(
            "GET", "/v1/deadletter")
        if status != 200:
            self._raise_for(status, headers, payload)
        return payload


__all__ = [
    "ServiceError",
    "ServiceBusy",
    "ServiceUnavailable",
    "JobGone",
    "CheckQuarantined",
    "ServiceClient",
]
