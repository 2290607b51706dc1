"""Minimal asyncio JSON-HTTP front end for the scheduler.

No web framework and no ``http.server`` — requests are parsed directly
off :func:`asyncio.start_server` streams. The surface is deliberately
tiny (docs/SERVING.md):

====== ============================  ===========================================
method path                          meaning
====== ============================  ===========================================
POST   ``/v1/jobs``                  submit a solve job → 202 + job id
GET    ``/v1/jobs/<id>``             job status
GET    ``/v1/jobs/<id>/result``      result (202 + Retry-After while pending)
POST   ``/v1/jobs/<id>/cancel``      cancel mid-queue or mid-solve
GET    ``/v1/metrics``               metrics snapshot + cache/queue stats
GET    ``/v1/healthz``               liveness + queue depth
====== ============================  ===========================================

Failed jobs answer their stored HTTP status with the structured error
payload produced by :func:`~repro.serve.protocol.error_payload`;
transport-level problems (bad JSON, oversized bodies, unknown routes) are
mapped here.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import QueueFullError, SubmitRequest, error_payload
from repro.serve.scheduler import Scheduler

__all__ = ["ServeApp"]

_MAX_BODY = 8 * 1024 * 1024  # 8 MiB: specs are small; nobody ships matrices
_MAX_HEADER_LINES = 100
_READ_TIMEOUT = 10.0  # seconds a client gets to send one whole request

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _response(
    status: int, payload: dict[str, Any], *, retry_after: float | None = None
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if retry_after is not None:
        headers.append(f"Retry-After: {retry_after:g}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes]:
    request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
    if not request_line:
        raise _HttpError(400, "empty request")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES):
        line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length)
    return method, target, headers, body


class ServeApp:
    """The solve service: a scheduler plus its HTTP listener."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Scheduler | None = None,
        **scheduler_kwargs: Any,
    ) -> None:
        if scheduler is not None and scheduler_kwargs:
            raise ValidationError(
                "pass either a prebuilt scheduler or scheduler kwargs, not both"
            )
        self.scheduler = scheduler if scheduler is not None else Scheduler(**scheduler_kwargs)
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def metrics(self) -> MetricsRegistry:
        return self.scheduler.metrics

    # -- lifecycle ------------------------------------------------------- #
    async def start(self) -> tuple[str, int]:
        """Start scheduler + listener; returns the bound ``(host, port)``."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    # -- request handling ------------------------------------------------ #
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                try:
                    request = await asyncio.wait_for(_read_request(reader), _READ_TIMEOUT)
                except TimeoutError:
                    # A stalled client must not hold its connection forever.
                    raise _HttpError(
                        408, f"request not received within {_READ_TIMEOUT:g} s"
                    ) from None
                method, target, _headers, body = request
                response = await self._route(method, target, body)
            except _HttpError as exc:
                response = _response(
                    exc.status, {"error": {"type": "HttpError", "message": str(exc)}}
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 — never kill the listener
                status, payload = error_payload(exc)
                response = _response(status, {"error": payload})
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(self, method: str, target: str, body: bytes) -> bytes:
        path = target.split("?", 1)[0].rstrip("/")
        if path == "/v1/jobs" and method == "POST":
            return self._submit(body)
        if path == "/v1/metrics" and method == "GET":
            return _response(200, self._metrics_payload())
        if path == "/v1/healthz" and method == "GET":
            return _response(
                200, {"ok": True, "queue_depth": len(self.scheduler.queue)}
            )
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result") and method == "GET":
                return await self._result(rest[: -len("/result")])
            if rest.endswith("/cancel") and method == "POST":
                return self._cancel(rest[: -len("/cancel")])
            if "/" not in rest and method == "GET":
                return self._status(rest)
        if path in ("/v1/jobs", "/v1/metrics", "/v1/healthz") or path.startswith("/v1/jobs/"):
            raise _HttpError(405, f"method {method} not allowed on {path}")
        raise _HttpError(404, f"no route for {method} {path}")

    def _submit(self, body: bytes) -> bytes:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        request = SubmitRequest.from_json(payload)
        try:
            job = self.scheduler.submit(request)
        except QueueFullError as exc:
            status, error = error_payload(exc)
            return _response(status, {"error": error}, retry_after=exc.retry_after)
        return _response(202, job.status_payload())

    def _job_or_404(self, job_id: str):
        job = self.scheduler.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return job

    def _status(self, job_id: str) -> bytes:
        return _response(200, self._job_or_404(job_id).status_payload())

    async def _result(self, job_id: str) -> bytes:
        job = self._job_or_404(job_id)
        if not job.finished:
            return _response(202, job.status_payload(), retry_after=0.05)
        if job.state == "done":
            payload = job.status_payload()
            payload["result"] = job.result
            if job.report is not None:
                payload["report"] = job.report
            return _response(200, payload)
        if job.state == "cancelled":
            payload = job.status_payload()
            payload["error"] = {
                "type": "Cancelled",
                "message": "job was cancelled",
                "retryable": False,
            }
            return _response(409, payload)
        payload = job.status_payload()
        payload["error"] = job.error or {
            "type": "Unknown", "message": "job failed", "retryable": False,
        }
        retry_after = (job.error or {}).get("retry_after")
        return _response(job.error_status or 500, payload, retry_after=retry_after)

    def _cancel(self, job_id: str) -> bytes:
        job = self.scheduler.cancel(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        return _response(200, job.status_payload())

    def _metrics_payload(self) -> dict[str, Any]:
        return {
            "metrics": self.metrics.snapshot(),
            "stats": self.scheduler.stats(),
        }
