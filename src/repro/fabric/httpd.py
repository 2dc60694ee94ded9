"""Minimal asyncio HTTP layer for the fabric — stdlib only.

The coordinator needs exactly one thing from HTTP: many concurrent
clients (pulling workers plus read-side dashboards/scrapes) multiplexed
onto one thread without a dependency footprint.  ``asyncio.start_server``
plus ~80 lines of HTTP/1.1 framing gives us that; handlers are plain
synchronous functions (every fabric operation is sub-millisecond queue
bookkeeping), so the event loop is never starved.

The client side is ``urllib.request`` — workers are sequential by design
(lease, execute, report), so blocking I/O is the natural fit there.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import traceback
import urllib.error
import urllib.request

#: request body ceiling — a completion payload for a 16-replica batch of
#: full RunResults is ~100 KB; 64 MB leaves room for metrics artifacts.
MAX_BODY = 64 * 1024 * 1024

#: end-to-end payload integrity: clients send a SHA-256 of the body in
#: this header and the server rejects any body that does not match with
#: a 400.  A bit flipped in flight (or by the chaos layer) can therefore
#: never settle a corrupted result — the worker just retries.
CHECKSUM_HEADER = "x-body-checksum"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            500: "Internal Server Error"}


def body_checksum(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class HttpError(Exception):
    """Raise inside a handler to return a non-200 JSON error."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class JsonHttpServer:
    """One-thread asyncio HTTP server dispatching to a sync handler.

    ``handler(method, path, body) -> payload`` where ``body`` is the
    parsed JSON request body (or None) and ``payload`` is a JSON-able
    dict — or a ``(payload, content_type)`` pair for non-JSON responses
    (the Prometheus text format).
    """

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 0):
        self.handler = handler
        self.host = host
        self.port = port              # 0 = ephemeral; fixed after start
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> str:
        """Serve on a background thread; returns the base URL."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="fabric-httpd")
        self._thread.start()
        self._started.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("fabric http server failed to start")
        return self.url

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5)

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            server = self._loop.run_until_complete(asyncio.start_server(
                self._serve_one, self.host, self.port))
        except BaseException as exc:  # port in use, bad host, ...
            self._startup_error = exc
            self._started.set()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            self._loop.close()

    # -- one request ----------------------------------------------------
    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive, framing_error = request
                if framing_error is not None:
                    # A mangled request (truncated body, checksum
                    # mismatch, oversize) gets an explicit 400 so the
                    # sender can retry, instead of a silently dropped
                    # connection; the stream offset is unreliable after
                    # bad framing, so the connection always closes.
                    status, payload, ctype = 400, \
                        {"error": framing_error}, "application/json"
                    keep_alive = False
                else:
                    status, payload, ctype = \
                        self._dispatch(method, path, body)
                blob = payload if isinstance(payload, bytes) else \
                    payload.encode() if isinstance(payload, str) else \
                    json.dumps(payload).encode()
                head = (f"HTTP/1.1 {status} {_REASONS.get(status, '?')}\r\n"
                        f"Content-Type: {ctype}\r\n"
                        f"Content-Length: {len(blob)}\r\n"
                        f"Connection: {'keep-alive' if keep_alive else 'close'}"
                        "\r\n\r\n")
                writer.write(head.encode() + blob)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        """One parsed request, or None when the connection is done.

        Returns ``(method, target, body, keep_alive, framing_error)``;
        a non-None ``framing_error`` means the request envelope itself
        was bad (truncated body, checksum mismatch, oversize) and the
        caller must answer 400 and close.
        """
        try:
            line = await reader.readline()
        except (ConnectionResetError, asyncio.LimitOverrunError):
            return None
        if not line.strip():
            return None
        try:
            method, target, version = line.decode().split()
        except ValueError:
            return None
        headers = {}
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() \
            != "close" and version.upper() == "HTTP/1.1"
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY:
            return (method.upper(), target, b"", False,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY}-byte ceiling")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                # Content-Length promised more bytes than arrived: the
                # body was truncated in flight.  Reject explicitly so
                # the sender retries instead of the payload being
                # partially parsed (or the connection silently dying).
                return (method.upper(), target, b"", False,
                        f"truncated request body: Content-Length "
                        f"declared {length} bytes, got "
                        f"{len(exc.partial)}")
        declared = headers.get(CHECKSUM_HEADER)
        if declared is not None and declared != body_checksum(body):
            return (method.upper(), target, b"", False,
                    "request body failed its integrity checksum "
                    "(corrupted in flight)")
        return method.upper(), target, body, keep_alive, None

    def _dispatch(self, method: str, target: str, raw: bytes):
        path = target.split("?", 1)[0]
        body = None
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                return 400, {"error": "request body is not valid JSON"}, \
                    "application/json"
        try:
            payload = self.handler(method, path, body)
        except HttpError as exc:
            return exc.status, {"error": str(exc)}, "application/json"
        except Exception:  # noqa: BLE001 - served as a 500, never fatal
            return 500, {"error": traceback.format_exc(limit=20)}, \
                "application/json"
        if isinstance(payload, tuple):
            payload, ctype = payload
        else:
            ctype = "application/json"
        return 200, payload, ctype


# -- client ---------------------------------------------------------------

def http_json(method: str, url: str, payload: dict | None = None,
              timeout: float = 30.0):
    """One JSON request/response round-trip (raises on non-2xx)."""
    data = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json",
               "Connection": "close"}
    if data is not None:
        headers[CHECKSUM_HEADER] = body_checksum(data)
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            blob = resp.read()
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read()).get("error", "")
        except Exception:  # noqa: BLE001 - best-effort error detail
            pass
        raise HttpError(exc.code, detail or str(exc)) from None
    return json.loads(blob) if blob else None
