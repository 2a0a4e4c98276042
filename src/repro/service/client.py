"""A small synchronous client for the simserve HTTP API.

Built on :mod:`http.client` (stdlib only, like the server).  Used by
the ``repro submit`` / ``repro status`` CLI, the identity tests, and
the service benchmark; one connection per request, matching the
server's ``Connection: close`` discipline.

Blocking waits go through the server's long-poll (``?wait=S``) rather
than a client-side sleep loop, so there is no wall-clock polling
anywhere in the stack: :meth:`ServiceClient.wait` just re-issues
bounded long-polls until the job leaves the live states.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit


class ServiceError(RuntimeError):
    """A non-2xx response, carrying the HTTP status and server text."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to one simserve instance at ``http://host:port``."""

    def __init__(self, address: str, timeout: float = 120.0) -> None:
        split = urlsplit(address if "//" in address
                         else f"http://{address}")
        if not split.hostname:
            raise ValueError(f"malformed server address {address!r}")
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None
                 ) -> Tuple[int, bytes]:
        conn = HTTPConnection(self.host, self.port,
                              timeout=timeout or self.timeout)
        try:
            payload = (json.dumps(body).encode("utf-8")
                       if body is not None else None)
            headers = ({"Content-Type": "application/json"}
                       if payload is not None else {})
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, data
        finally:
            conn.close()

    def _json(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              timeout: Optional[float] = None) -> Dict[str, Any]:
        status, data = self._request(method, path, body,
                                     timeout=timeout)
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            decoded = {"error": data.decode("utf-8", "replace")}
        if status >= 400:
            raise ServiceError(status,
                               decoded.get("error", "unknown error"))
        return decoded

    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST the job spec; returns its status (``created`` set)."""
        return self._json("POST", "/jobs", body=spec)

    def status(self, job_id: str,
               wait: Optional[float] = None) -> Dict[str, Any]:
        path = f"/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
            return self._json("GET", path, timeout=wait + 30.0)
        return self._json("GET", path)

    def wait(self, job_id: str, poll_s: float = 10.0,
             max_polls: int = 360) -> Dict[str, Any]:
        """Long-poll until the job finishes (or *max_polls* expire).

        Every request long-polls, the first included: the server
        answers a finished job at once, so a job that ends within
        *poll_s* costs one request.
        """
        if max_polls < 1:
            raise ValueError(f"max_polls must be >= 1, got {max_polls}")
        for _ in range(max_polls):
            status = self.status(job_id, wait=poll_s)
            if status["state"] not in ("queued", "running"):
                return status
        raise ServiceError(
            408, f"job {job_id} still {status['state']} after "
            f"{max_polls} x {poll_s:g}s long-polls")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._json("GET", "/jobs")["jobs"]

    def artifact(self, job_id: str) -> bytes:
        """The finished artifact: exact CLI ``--json`` bytes."""
        status, data = self._request("GET", f"/jobs/{job_id}/artifact")
        if status >= 400:
            raise ServiceError(status,
                               data.decode("utf-8", "replace").strip())
        return data

    def report(self, job_id: str) -> str:
        status, data = self._request("GET", f"/jobs/{job_id}/report")
        if status >= 400:
            raise ServiceError(status,
                               data.decode("utf-8", "replace").strip())
        return data.decode("utf-8")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def health(self) -> Dict[str, Any]:
        return self._json("GET", "/health")

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield NDJSON status lines until the server's end sentinel.

        The server terminates the stream with ``{"stream_end":
        true}`` (not just EOF -- forked pool workers may hold the
        connection's fd open), so iteration stops on the sentinel or
        on socket close, whichever comes first.
        """
        conn = HTTPConnection(self.host, self.port,
                              timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            response = conn.getresponse()
            if response.status >= 400:
                text = response.read().decode("utf-8", "replace")
                raise ServiceError(response.status, text.strip())
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if not line.strip():
                        continue
                    decoded = json.loads(line.decode("utf-8"))
                    if decoded.get("stream_end"):
                        return
                    yield decoded
        finally:
            conn.close()
