"""simserve's HTTP face: a tiny asyncio HTTP/1.1 server, stdlib only.

No web framework: :func:`asyncio.start_server` plus a hand-rolled
request parser is all the protocol this API needs (small JSON bodies,
one request per connection, ``Connection: close``).  The routes:

========  ==============================  ===============================
POST      /jobs                           submit a job spec (JSON body)
GET       /jobs                           list all job statuses
GET       /jobs/<id>                      one status; ``?wait=S`` long-polls
GET       /jobs/<id>/artifact             the artifact, **exact CLI bytes**
GET       /jobs/<id>/report               the human report (text/plain)
GET       /jobs/<id>/stream               NDJSON status stream until done
POST      /jobs/<id>/cancel               cancel a queued job
GET       /health                         queue + store + pool health
========  ==============================  ===============================

Error mapping: bad spec or malformed request (``Content-Length``,
``?wait=``) -> 400, unknown job -> 404, request not fully received
within :data:`READ_DEADLINE_S` -> 408, artifact of an unfinished job
-> 409, queue full -> 429 (back-pressure), draining -> 503.  All error
bodies are ``{"error": ...}`` JSON.

The artifact route serves :attr:`JobArtifact.artifact` verbatim --
the same ``to_json(...) + "\\n"`` text the one-shot CLI writes to its
``--json`` files -- which is what the byte-identity tests ``cmp``
against CLI output.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.service.jobs import JobError, JobSpec
from repro.service.queue import QueueFullError, UnknownJobError
from repro.service.scheduler import Scheduler, ServiceDraining

#: Upper bound on one request (headers + body); jobs specs are tiny.
MAX_REQUEST_BYTES = 1 << 20
#: Longest server-side long-poll before the client must re-ask.
MAX_WAIT_S = 60.0
#: Deadline for receiving one request's head and body.  A client that
#: stalls mid-request gets a 408 instead of holding a handler forever.
READ_DEADLINE_S = 30.0

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 409: "Conflict",
            413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class HttpError(Exception):
    """A request that maps to a non-200 response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _response(status: int, body: bytes, content_type: str) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _json_response(status: int, data: Any) -> bytes:
    body = (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")
    return _response(status, body, "application/json")


def _wait_seconds(raw: str) -> float:
    """The ``?wait=`` long-poll timeout, capped at :data:`MAX_WAIT_S`."""
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not seconds >= 0.0:  # also rejects NaN
        raise HttpError(400, f"wait must be a non-negative number of "
                        f"seconds, got {raw!r}")
    return min(seconds, MAX_WAIT_S)


class ServiceServer:
    """The HTTP front end over one :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(method, path, query, body, writer)
        except HttpError as exc:
            writer.write(_json_response(exc.status,
                                        {"error": exc.message}))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # pragma: no cover - defensive
            try:
                writer.write(_json_response(500, {"error": str(exc)}))
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str,
                                                Dict[str, str], bytes]]:
        deadline = READ_DEADLINE_S
        try:
            return await asyncio.wait_for(self._parse_request(reader),
                                          deadline)
        except asyncio.TimeoutError:
            raise HttpError(408, f"request not received within "
                            f"{deadline:g} s") from None

    async def _parse_request(self, reader: asyncio.StreamReader
                             ) -> Optional[Tuple[str, str,
                                                 Dict[str, str], bytes]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        except asyncio.LimitOverrunError:
            raise HttpError(413, "request head too large") from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise HttpError(400, f"malformed request line "
                            f"{lines[0]!r}") from None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, f"Content-Length must be a non-negative "
                            f"integer, got {raw_length!r}")
        length = int(raw_length)
        if length > MAX_REQUEST_BYTES:
            raise HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {name: values[-1] for name, values
                 in parse_qs(split.query).items()}
        return method.upper(), split.path, query, body

    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     query: Dict[str, str], body: bytes,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("/") if p]
        if parts == ["health"] and method == "GET":
            writer.write(_json_response(200, self.scheduler.health()))
            return
        if parts == ["jobs"]:
            if method == "POST":
                writer.write(await self._submit(body))
                return
            if method == "GET":
                statuses = [r.status()
                            for r in self.scheduler.queue.records()]
                writer.write(_json_response(200, {"jobs": statuses}))
                return
            raise HttpError(405, f"{method} not allowed on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            await self._job_route(method, parts[1], parts[2:], query,
                                  writer)
            return
        raise HttpError(404, f"no route for {path}")

    async def _submit(self, body: bytes) -> bytes:
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "body is not valid JSON") from None
        try:
            spec = JobSpec.from_dict(data)
            record, created = await self.scheduler.submit(spec)
        except JobError as exc:
            raise HttpError(400, str(exc)) from None
        except QueueFullError as exc:
            raise HttpError(429, str(exc)) from None
        except ServiceDraining as exc:
            raise HttpError(503, str(exc)) from None
        status = record.status()
        status["created"] = created
        return _json_response(201 if created else 200, status)

    async def _job_route(self, method: str, job_id: str, rest: list,
                         query: Dict[str, str],
                         writer: asyncio.StreamWriter) -> None:
        try:
            record = self.scheduler.queue.get(job_id)
        except UnknownJobError:
            raise HttpError(404, f"unknown job {job_id!r}") from None
        if not rest and method == "GET":
            if "wait" in query:
                timeout = _wait_seconds(query["wait"])
                try:
                    record = await self.scheduler.wait_for(
                        job_id, timeout=timeout)
                except asyncio.TimeoutError:
                    pass  # long-poll expired: report where we are
            writer.write(_json_response(200, record.status()))
            return
        if rest == ["artifact"] and method == "GET":
            if record.state != "done" or record.artifact is None:
                raise HttpError(
                    409, f"job {job_id} is {record.state}, not done")
            writer.write(_response(
                200, record.artifact.artifact.encode("utf-8"),
                "application/json"))
            return
        if rest == ["report"] and method == "GET":
            if record.state != "done" or record.artifact is None:
                raise HttpError(
                    409, f"job {job_id} is {record.state}, not done")
            writer.write(_response(
                200, record.artifact.report.encode("utf-8"),
                "text/plain; charset=utf-8"))
            return
        if rest == ["stream"] and method == "GET":
            await self._stream(record, writer)
            return
        if rest == ["cancel"] and method == "POST":
            record = self.scheduler.queue.cancel(job_id)
            await self.scheduler._bump()
            writer.write(_json_response(200, record.status()))
            return
        raise HttpError(404,
                        f"no route for /jobs/{job_id}/{'/'.join(rest)}")

    async def _stream(self, record: Any,
                      writer: asyncio.StreamWriter) -> None:
        """NDJSON status lines until the job finishes (or we drain).

        The stream ends with an explicit ``{"stream_end": true}``
        sentinel rather than relying on EOF: lazily forked pool
        workers inherit this connection's fd, so the client may not
        see a FIN when we close our copy -- the sentinel makes the
        protocol self-terminating regardless.
        """
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("ascii"))
        while True:
            version = self.scheduler.version
            line = json.dumps(record.status(), sort_keys=True) + "\n"
            writer.write(line.encode("utf-8"))
            await writer.drain()
            if record.finished or self.scheduler.draining:
                break
            try:
                await self.scheduler.wait_version(version, timeout=10.0)
            except asyncio.TimeoutError:
                pass  # heartbeat: re-emit the unchanged status
        writer.write(b'{"stream_end": true}\n')
        await writer.drain()


# ----------------------------------------------------------------------
# Serving loop (the `repro serve` entry) and the in-thread test rig
# ----------------------------------------------------------------------
async def serve(store_root: str, host: str = "127.0.0.1",
                port: int = 0, workers: int = 2, capacity: int = 64,
                parallel_jobs: int = 2,
                announce: Optional[Callable[[str], None]] = None,
                drain_signals: bool = True,
                ready: Optional[Callable[["ServiceServer",
                                          Scheduler], None]] = None
                ) -> int:
    """Run the whole stack until drained; returns the exit code.

    Builds store + journal + queue + scheduler + HTTP server,
    recovers journaled jobs, and serves until SIGTERM/SIGINT (or a
    programmatic :meth:`Scheduler.drain`).  Shutdown is graceful:
    in-flight chunks land and persist, interrupted jobs are
    re-journaled as queued, and *announce* is told how to resume.
    """
    from repro.service.queue import JobJournal, JobQueue
    from repro.store.store import ResultStore
    import os

    say = announce or (lambda _msg: None)
    store = ResultStore(store_root)
    journal = JobJournal(os.path.join(store_root, "service", "jobs"))
    queue = JobQueue(capacity=capacity, journal=journal)
    recovered = queue.recover()
    scheduler = Scheduler(store, queue, workers=workers,
                          parallel_jobs=parallel_jobs)
    # Before the announce line: a client that signals as soon as it
    # reads that line must get the drain, not the default kill.
    if drain_signals:
        import signal

        def _request_drain(signame: str) -> None:
            say(f"{signame}: draining (in-flight chunks will land; "
                f"resume with: repro serve --store {store_root})")
            asyncio.ensure_future(scheduler.drain())

        loop = asyncio.get_running_loop()
        for signame in ("SIGTERM", "SIGINT"):
            try:
                loop.add_signal_handler(
                    getattr(signal, signame),
                    _request_drain, signame)
            except (NotImplementedError, RuntimeError,
                    ValueError):  # pragma: no cover - non-POSIX
                pass
    server = ServiceServer(scheduler, host=host, port=port)
    await server.start()
    if recovered:
        say(f"recovered {len(recovered)} unfinished job(s) "
            f"from the journal")
    say(f"simserve listening on {server.address} "
        f"(store {store_root}, {workers} workers, "
        f"capacity {capacity})")
    if ready is not None:
        ready(server, scheduler)

    run_task = asyncio.ensure_future(scheduler.run())
    try:
        await run_task
    finally:
        await server.stop()
    leftover = [r for r in queue.records() if not r.finished]
    if leftover:
        say(f"drained with {len(leftover)} job(s) still queued; "
            f"they will resume on restart")
    say("simserve stopped")
    return 0


class ServerThread:
    """Run the full service on a private loop in a daemon thread.

    The test rig and the CLI's self-hosted submissions use this:
    ``with ServerThread(store_root) as address: ...`` serves on an
    ephemeral port and drains cleanly on exit.
    """

    def __init__(self, store_root: str, workers: int = 2,
                 capacity: int = 64, parallel_jobs: int = 2) -> None:
        self.store_root = store_root
        self.workers = workers
        self.capacity = capacity
        self.parallel_jobs = parallel_jobs
        self.address = ""
        self.scheduler: Optional[Scheduler] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[Any] = None
        self._ready: Optional[Any] = None

    def start(self) -> str:
        import threading

        self._ready = threading.Event()

        def _main() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            def _on_ready(server: ServiceServer,
                          scheduler: Scheduler) -> None:
                self.address = server.address
                self.scheduler = scheduler
                self._ready.set()

            try:
                loop.run_until_complete(serve(
                    self.store_root, workers=self.workers,
                    capacity=self.capacity,
                    parallel_jobs=self.parallel_jobs,
                    drain_signals=False, ready=_on_ready))
            finally:
                loop.close()
                self._ready.set()  # unblock start() on crash

        self._thread = threading.Thread(
            target=_main, name="simserve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if not self.address:
            raise RuntimeError("simserve thread failed to start")
        return self.address

    def stop(self) -> None:
        if self._loop is not None and self.scheduler is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.scheduler.drain(), self._loop)
            future.result(timeout=60.0)
        if self._thread is not None:
            self._thread.join(timeout=60.0)

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
