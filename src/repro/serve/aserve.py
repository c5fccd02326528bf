"""Asyncio front end: one event loop, thousands of connections.

The TCP and HTTP front end of ``repro serve``.  Every connection is
multiplexed onto **one** event loop, so mostly idle connections cost a
buffer each, not an OS thread:

* the JSON-lines protocol (:func:`~repro.serve.frontend.handle_request`
  answers each request, the same function ``serve_stream`` uses for
  stdin/stdout), with per-connection buffers bounded by
  ``max_line_bytes`` — an oversize line is answered in-band and the
  connection closed;
* a minimal HTTP/1.1 mapping on a second port: ``POST`` a JSON request
  body (the same schema as one protocol line) to any path and get the
  JSON response back, keep-alive honoured — enough for ``curl`` and
  stdlib-http clients without an HTTP framework;
* backpressure at both ends: slow readers stall their own connection via
  ``writer.drain()`` (bytes queue per-connection, not per-process), and
  expensive requests pass through a bounded semaphore
  (:data:`DEFAULT_MAX_INFLIGHT`) + worker pool before reaching the
  :class:`~repro.serve.service.CompileService` queue, so a compile storm
  saturates the service's own admission control instead of spawning
  unbounded threads.

Cheap requests (``ping``, ``stats``, ``dispatch`` and ``execute`` by
``handle`` — anything that cannot compile, at most
:data:`DEFAULT_INLINE_BYTES` on the wire, with no shared-memory operands)
are answered *inline* on the event loop: for the serving hot path — warm
handles, small operands — that saves two thread hops per request.
Everything else is offloaded to the worker pool so the loop never blocks
on it: ``compile``, ``warm``, any request carrying ``source``
(``dispatch``/``execute`` compile-if-needed), big payloads, and shm
executes.

The event loop runs in a dedicated thread, so the synchronous CLI (and
tests) drive the server with plain :meth:`AsyncCompileServer.start` /
:meth:`~AsyncCompileServer.close` calls; :meth:`close` is deterministic —
servers closed, every connection task cancelled and awaited, queued
offloads cancelled, running ones finished and the worker pool joined,
loop thread joined.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.serve.frontend import (
    DEFAULT_MAX_LINE_BYTES,
    _error,
    handle_request,
)
from repro.serve.metrics import connection_closed, connection_opened, record_wire
from repro.serve.service import CompileService

__all__ = ["AsyncCompileServer"]

#: Requests at most this many wire bytes (and unable to compile) are
#: answered inline on the event loop; larger ones go to the worker pool.
DEFAULT_INLINE_BYTES = 64 * 1024

#: Bound on requests concurrently offloaded to the worker pool (the
#: semaphore that turns a compile storm into queueing, not thread growth).
DEFAULT_MAX_INFLIGHT = 32


def _shm_operands(payload: dict) -> bool:
    """Whether an execute request moves operands through shared memory
    (small on the wire, arbitrarily large in the segments)."""
    arrays = payload.get("arrays")
    if isinstance(arrays, list) and any(
        isinstance(a, dict) and a.get("encoding") == "shm" for a in arrays
    ):
        return True
    return payload.get("result_encoding") == "shm"


class AsyncCompileServer:
    """JSON-lines (+ optional HTTP) server on one background event loop.

    ``port=0`` / ``http_port=0`` bind ephemeral ports (read
    :attr:`address` / :attr:`http_address` after :meth:`start`);
    ``http_port=None`` disables the HTTP listener.  One instance serves
    one :class:`CompileService`; start/close are idempotent and safe from
    any thread.
    """

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        http_port: Optional[int] = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ):
        self.compile_service = service
        self.host = host
        self._port = port
        self._http_port = http_port
        self.max_line_bytes = max_line_bytes
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._http_server: Optional[asyncio.base_events.Server] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = False
        self._closed = False
        self.address: Optional[tuple[str, int]] = None
        self.http_address: Optional[tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AsyncCompileServer":
        if self._started:
            return self
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=min(DEFAULT_MAX_INFLIGHT, 16),
            thread_name_prefix="repro-aserve",
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aserve-loop", daemon=True
        )
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._open_servers(), self._loop
            ).result(timeout=10.0)
        except BaseException:
            self.close()
            raise
        return self

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _open_servers(self) -> None:
        self._semaphore = asyncio.Semaphore(DEFAULT_MAX_INFLIGHT)
        # limit bounds the reader's internal buffer: readline() past it
        # raises instead of buffering an unbounded line.
        self._server = await asyncio.start_server(
            self._serve_jsonl,
            self.host,
            self._port,
            limit=self.max_line_bytes + 2,
            backlog=128,
        )
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        if self._http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http,
                self.host,
                self._http_port,
                limit=self.max_line_bytes + 2,
                backlog=128,
            )
            sock = self._http_server.sockets[0].getsockname()
            self.http_address = (sock[0], sock[1])

    def close(self, timeout: float = 5.0) -> None:
        """Deterministic shutdown: listeners, connections, pool, loop.

        Queued offloads are cancelled; running ones finish and the pool's
        threads are joined.  Every wait shares the one ``timeout``.
        """
        if self._closed or self._loop is None:
            return
        self._closed = True
        deadline = time.monotonic() + timeout

        def remaining() -> float:
            return max(0.0, deadline - time.monotonic())

        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            ).result(timeout=remaining())
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            # shutdown(wait=True) has no timeout; join the workers instead.
            for worker in list(self._pool._threads):
                worker.join(remaining())
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(remaining())
        with contextlib.suppress(Exception):
            self._loop.close()

    async def _shutdown(self) -> None:
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                with contextlib.suppress(Exception):
                    await server.wait_closed()
        tasks = list(self._conn_tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "AsyncCompileServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request dispatch ----------------------------------------------------

    async def _respond(self, raw: bytes) -> Optional[str]:
        """Answer one decoded request line (inline or offloaded)."""
        stripped = raw.strip()
        if not stripped:
            return None
        try:
            payload = json.loads(stripped)
        except ValueError as exc:
            return json.dumps(_error(None, f"malformed JSON request: {exc}", exc))
        if not isinstance(payload, dict):
            return json.dumps(handle_request(self.compile_service, payload))
        if (
            payload.get("op") not in ("compile", "warm")
            and "source" not in payload
            and len(raw) <= DEFAULT_INLINE_BYTES
            and not _shm_operands(payload)
        ):
            # Cheap path: answered on the loop, no thread hop.  Every
            # request that cannot compile is sub-millisecond at this
            # payload size (warm execute included — the kernels on small
            # operands cost less than the executor round-trip would).
            # Anything carrying ``source`` may compile first
            # (compile-if-needed), and ``warm`` re-runs cache warm-up, so
            # both are offloaded with ``compile``.  shm executes are
            # excluded too: their wire line is tiny but the mapped
            # operands are not, and the kernels would block the loop.
            return json.dumps(handle_request(self.compile_service, payload))
        async with self._semaphore:
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                self._pool, handle_request, self.compile_service, payload
            )
        return json.dumps(response)

    # -- JSON-lines listener -------------------------------------------------

    async def _serve_jsonl(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        connection_opened("async")
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversize line: the buffer holds a partial request we
                    # can never resync from — answer in-band and close.
                    await self._write_line(
                        writer,
                        json.dumps(
                            _error(
                                None,
                                f"request line exceeds "
                                f"{self.max_line_bytes} bytes",
                            )
                        ),
                    )
                    return
                if not raw:
                    return
                record_wire("async", "in", len(raw))
                response = await self._respond(raw)
                if response is None:
                    continue
                if not await self._write_line(writer, response):
                    return
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            connection_closed("async")
            await _close_writer(writer)

    async def _write_line(
        self, writer: asyncio.StreamWriter, response: str
    ) -> bool:
        data = response.encode() + b"\n"
        try:
            writer.write(data)
            await writer.drain()  # per-connection backpressure
        except (ConnectionError, OSError):
            return False
        record_wire("async", "out", len(data))
        return True

    # -- HTTP/1.1 listener ---------------------------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        connection_opened("http")
        try:
            while True:
                keep_alive = await self._serve_one_http(reader, writer)
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_tasks.discard(task)
            connection_closed("http")
            await _close_writer(writer)

    async def _serve_one_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One request/response round; returns whether to keep the
        connection open."""
        try:
            request_line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            await self._http_reply(
                writer, 431, {"ok": False, "error": "request line too long"}
            )
            return False
        if not request_line:
            return False
        wire_in = len(request_line)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._http_reply(
                writer, 400, {"ok": False, "error": "malformed request line"}
            )
            return False
        method, _target, version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                header = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                await self._http_reply(
                    writer, 431, {"ok": False, "error": "header line too long"}
                )
                return False
            wire_in += len(header)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = version == "HTTP/1.1" and (
            headers.get("connection", "").lower() != "close"
        )
        if method != "POST":
            await self._http_reply(
                writer,
                405,
                {"ok": False, "error": "POST a JSON request body"},
                keep_alive=keep_alive,
            )
            return keep_alive
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.max_line_bytes:
            await self._http_reply(
                writer,
                413 if length > 0 else 400,
                {"ok": False, "error": "bad or oversize content-length"},
            )
            return False
        body = await reader.readexactly(length) if length else b""
        wire_in += len(body)
        record_wire("http", "in", wire_in)
        response = await self._respond(body if body.strip() else b"{}")
        await self._http_reply_raw(
            writer, 200, (response or "{}").encode(), keep_alive=keep_alive
        )
        return keep_alive

    async def _http_reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = False,
    ) -> None:
        await self._http_reply_raw(
            writer, status, json.dumps(payload).encode(), keep_alive=keep_alive
        )

    async def _http_reply_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool = False,
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            405: "Method Not Allowed",
            413: "Payload Too Large",
            431: "Request Header Fields Too Large",
        }.get(status, "Error")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return
        record_wire("http", "out", len(head) + len(body))


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(Exception):
        writer.close()
        await writer.wait_closed()

