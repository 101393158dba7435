"""Stdlib HTTP front door for :class:`~repro.service.manager.CampaignService`.

Routes (all JSON unless noted):

==========================  =====================================================
``POST /jobs``              Submit a campaign spec (see :mod:`repro.service.codec`);
                            returns ``201`` with the job payload.  An optional
                            ``"tenant"`` field namespaces cache accounting.
``GET /jobs``               List every job (most recent last).
``GET /jobs/<id>``          One job's state/progress; ``?results=1`` embeds the
                            full results payload once the job is done.
``GET /jobs/<id>/events``   NDJSON progress stream: replays the job's event log
                            from ``?since=<seq>`` (default 0) and then follows it
                            live until the job reaches a terminal state.
``DELETE /jobs/<id>``       Request cancellation; ``409`` if already terminal.
``GET /healthz``            Liveness: ``{"status": "ok"}``.
``GET /metrics``            Queue depth, worker utilization, cache hit rate, ...
==========================  =====================================================

Implementation notes: the server is a ``ThreadingHTTPServer`` speaking
HTTP/1.0 with ``Connection: close`` framing, which lets the events endpoint
stream newline-delimited JSON without chunked transfer encoding — each
event is written and flushed as it happens, and end-of-stream is the
connection closing.  Invalid campaign specs surface as ``400`` with the
domain layer's own ``ValueError``/``KeyError`` message.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.manager import CampaignService

_JOB_PATH = re.compile(r"^/jobs/(\d+)$")
_EVENTS_PATH = re.compile(r"^/jobs/(\d+)/events$")

#: How long one streaming long-poll tick waits before re-checking state.
_STREAM_POLL_SECONDS = 0.25

#: Quiet streams emit a heartbeat line this often so client socket
#: timeouts don't sever a watcher mid-cell.
_HEARTBEAT_SECONDS = 5.0


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps the HTTP surface onto a shared :class:`CampaignService`."""

    server_version = "repro-service"
    # HTTP/1.0: every response is framed by connection close, which is what
    # lets the NDJSON stream flush incrementally without chunked encoding.
    protocol_version = "HTTP/1.0"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        return parsed.path, query

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, query = self._route()
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
            return
        if path == "/metrics":
            self._send_json(200, self.service.metrics())
            return
        if path == "/jobs":
            self._send_json(
                200,
                {"jobs": [job.to_payload() for job in self.service.store.jobs()]},
            )
            return
        match = _JOB_PATH.match(path)
        if match:
            job = self.service.job(int(match.group(1)))
            if job is None:
                self._error(404, f"no such job: {match.group(1)}")
                return
            include_results = query.get("results") in ("1", "true", "yes")
            self._send_body(200, job.to_json(include_results=include_results))
            return
        match = _EVENTS_PATH.match(path)
        if match:
            self._stream_events(int(match.group(1)), query)
            return
        self._error(404, f"unknown path: {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _ = self._route()
        if path != "/jobs":
            self._error(404, f"unknown path: {path}")
            return
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            self._error(400, f"invalid JSON body: {error}")
            return
        if not isinstance(payload, dict):
            self._error(400, "campaign spec must be a JSON object")
            return
        tenant = str(payload.get("tenant") or "default")
        try:
            job = self.service.submit(payload, tenant=tenant)
        except (ValueError, KeyError) as error:
            message = error.args[0] if error.args else str(error)
            self._error(400, str(message))
            return
        except RuntimeError as error:
            self._error(503, str(error))
            return
        self._send_json(201, job.to_payload())

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path, _ = self._route()
        match = _JOB_PATH.match(path)
        if not match:
            self._error(404, f"unknown path: {path}")
            return
        job_id = int(match.group(1))
        job = self.service.job(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
            return
        if not job.cancel():
            self._error(409, f"job {job_id} already {job.state.value}")
            return
        self._send_json(202, job.to_payload())

    # ------------------------------------------------------------------
    # NDJSON event stream
    # ------------------------------------------------------------------
    def _stream_events(self, job_id: int, query: Dict[str, str]) -> None:
        job = self.service.job(job_id)
        if job is None:
            self._error(404, f"no such job: {job_id}")
            return
        try:
            seq = max(0, int(query.get("since", "0")))
        except ValueError:
            self._error(400, f"invalid since={query.get('since')!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            last_write = time.monotonic()
            while True:
                events = job.events_since(seq, timeout=_STREAM_POLL_SECONDS)
                for event in events:
                    self.wfile.write(json.dumps(event).encode("utf-8") + b"\n")
                    seq = event["seq"] + 1
                if events:
                    self.wfile.flush()
                    last_write = time.monotonic()
                elif time.monotonic() - last_write >= _HEARTBEAT_SECONDS:
                    self.wfile.write(
                        json.dumps({"event": "heartbeat", "job": job.id}).encode(
                            "utf-8"
                        )
                        + b"\n"
                    )
                    self.wfile.flush()
                    last_write = time.monotonic()
                if job.state.terminal:
                    # The terminal transition's event may land just after we
                    # read the state; one final non-blocking drain gets it.
                    for event in job.events_since(seq, timeout=None):
                        self.wfile.write(
                            json.dumps(event).encode("utf-8") + b"\n"
                        )
                        seq = event["seq"] + 1
                    self.wfile.flush()
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # the watcher went away; nothing to clean up


class ServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`CampaignService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        super().__init__((host, port), ServiceRequestHandler)
        self.service = service
        self.verbose = verbose

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, docs, bench)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-service-http", daemon=True
        )
        thread.start()
        return thread


def create_server(
    service: Optional[CampaignService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceServer:
    """Bind a :class:`ServiceServer` (``port=0`` picks a free port)."""
    return ServiceServer(service or CampaignService(), host, port, verbose=verbose)
