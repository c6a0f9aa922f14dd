"""Minimal HTTP/1.1 for asyncio — stdlib only, sans-io core.

The live control plane needs exactly enough HTTP to speak JSON with
curl, a browser and the seeded stress client: request/response framing
with ``Content-Length`` bodies, keep-alive, and nothing else (no chunked
transfer, no multipart, no TLS).  Rather than pull in a framework, the
codec is ~330 lines split into a **pure** head parser/encoder — unit
testable byte-for-byte without sockets — a sans-io
:class:`RequestFramer` that the server's protocol feeds the bytes each
``data_received`` delivers, and one asyncio wrapper for the client
half (:func:`read_response`) that frames a response off a
``StreamReader``.

Hard bounds (:data:`MAX_HEAD_BYTES`, :data:`MAX_BODY_BYTES`) make the
server safe to expose on a dev box: an oversized or malformed message
raises :class:`HttpError` with the status the handler should answer
with, and the connection is closed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional
from urllib.parse import urlsplit

from repro.errors import LiveError

#: request/status line + headers must fit here (64 KiB, nginx's default)
MAX_HEAD_BYTES = 64 * 1024
#: largest accepted Content-Length (1 MiB — steering bodies are tiny)
MAX_BODY_BYTES = 1 << 20

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_METHODS = {"GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS"}


class HttpError(LiveError):
    """A message the codec refuses; ``status`` is the answer to send."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class Request:
    """One parsed HTTP request (headers lower-cased, body raw bytes);
    ``path`` is the target's path, split once when it is built."""

    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    path: str = field(init=False)

    def __post_init__(self) -> None:
        try:
            self.path = urlsplit(self.target).path
        except ValueError as exc:  # an authority it refuses: GET //[x
            raise HttpError(400, f"malformed request target: {exc}") from None

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"

    def json(self) -> dict:
        """The body as a JSON object ({} when empty); 400 on garbage."""
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body)
        except (ValueError, RecursionError) as exc:
            # ValueError: bad UTF-8, bad JSON, or an integer literal past
            # the interpreter's digit limit; RecursionError: nesting
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HttpError(400, "JSON body must be an object")
        return doc


@dataclass
class Response:
    """One parsed HTTP response (the stress client's half)."""

    status: int
    reason: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> dict:
        return json.loads(self.body) if self.body else {}


# -- pure head parsing -------------------------------------------------------


def _parse_headers(lines: list[bytes], what: str) -> dict[str, str]:
    headers: dict[str, str] = {}
    for raw in lines:
        if not raw.strip():
            continue
        if raw[:1].isspace():
            raise HttpError(400, f"{what}: obsolete header line folding")
        name, sep, value = raw.partition(b":")
        if not sep or not name.strip():
            raise HttpError(400, f"{what}: malformed header line {raw[:60]!r}")
        try:
            key = name.strip().decode("ascii").lower()
        except UnicodeDecodeError:
            raise HttpError(400, f"{what}: non-ASCII header name {name[:60]!r}") from None
        text = value.strip().decode("latin-1")
        # RFC 9112 section 6.3: differing Content-Length values are an
        # unrecoverable framing error, never a last-one-wins choice
        if key == "content-length" and headers.get(key, text) != text:
            raise HttpError(400, f"{what}: conflicting Content-Length values")
        headers[key] = text
    return headers


def parse_request_head(head: bytes) -> Request:
    """Request line + headers -> a body-less :class:`Request`.

    ``head`` is everything up to and including the blank line.  Raises
    :class:`HttpError` carrying the status a server should answer with.
    """
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {lines[0][:80]!r}")
    try:
        method, target, version = (p.decode("ascii") for p in parts)
    except UnicodeDecodeError:
        raise HttpError(400, "non-ASCII request line") from None
    if method not in _METHODS:
        raise HttpError(405, f"unsupported method {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported version {version!r}")
    if not target.startswith("/"):
        raise HttpError(400, f"request target must be origin-form, got {target!r}")
    return Request(method, target, version, _parse_headers(lines[1:], "request"))


def parse_response_head(head: bytes) -> Response:
    """Status line + headers -> a body-less :class:`Response`."""
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ", 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise HttpError(502, f"malformed status line {lines[0][:80]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(502, f"non-numeric status {parts[1][:10]!r}") from None
    reason = parts[2].decode("latin-1") if len(parts) == 3 else ""
    return Response(status, reason, _parse_headers(lines[1:], "response"))


def _body_length(headers: dict[str, str], what: str) -> int:
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, f"{what}: chunked transfer encoding not supported")
    raw = headers.get("content-length", "0")
    # ASCII digits only (RFC 9112 section 6.3): int() would also take
    # "+5", " 7", "1_0" and non-ASCII digits
    if not (raw.isascii() and raw.isdigit()):
        raise HttpError(400, f"{what}: bad Content-Length {raw[:40]!r}")
    # past the size cap by its digit count alone, before int() could
    # refuse a digit string longer than the interpreter's limit
    digits = raw.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise HttpError(413, f"{what}: body of {digits[:40]} bytes exceeds {MAX_BODY_BYTES}")
    return int(digits)


# -- encoding ----------------------------------------------------------------


def json_body(obj: object) -> bytes:
    """The canonical wire form of a JSON payload (sorted keys, compact)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def encode_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Iterable[tuple[str, str]] = (),
    keep_alive: bool = True,
) -> bytes:
    """Serialise one complete response, framing included."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def encode_request(
    method: str,
    target: str,
    body: bytes = b"",
    host: str = "localhost",
    keep_alive: bool = True,
) -> bytes:
    """Serialise one complete request (the stress client's half); a
    body is always JSON."""
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


# -- framing -----------------------------------------------------------------


class RequestFramer:
    """Sans-io request framing: bytes in, whole requests out, in order.

    :meth:`feed` appends what the socket delivered, :meth:`next_request`
    takes the next complete request (``None`` until its last byte has
    arrived), and :meth:`close` checks that the stream ended between
    requests.  Each head is parsed once, when its blank line arrives.
    The bounds are a ``StreamReader``'s with ``limit=MAX_HEAD_BYTES``: a
    head whose blank line starts past :data:`MAX_HEAD_BYTES` is a 431,
    as soon as the bytes held show it.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: where the next search for the blank line starts
        self._scan = 0
        #: a request whose head is parsed and whose body is still owed
        self._pending: Optional[Request] = None
        self._length = 0

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def next_request(self) -> Optional[Request]:
        """The next whole request, or None until more bytes arrive."""
        buffer = self._buffer
        request = self._pending
        if request is None:
            end = buffer.find(b"\r\n\r\n", self._scan)
            if end < 0:
                if len(buffer) > MAX_HEAD_BYTES + 3:
                    raise HttpError(431, f"head exceeds {MAX_HEAD_BYTES} bytes")
                self._scan = max(0, len(buffer) - 3)
                return None
            if end > MAX_HEAD_BYTES:
                raise HttpError(431, f"head exceeds {MAX_HEAD_BYTES} bytes")
            request = parse_request_head(bytes(buffer[: end + 4]))
            del buffer[: end + 4]
            self._scan = 0
            length = _body_length(request.headers, "request")
            if not length:
                return request
            self._pending, self._length = request, length
        length = self._length
        if len(buffer) < length:
            return None
        request.body = bytes(buffer[:length])
        del buffer[:length]
        self._pending = None
        return request

    def close(self) -> None:
        """The stream ended: a 400 unless it ended between requests."""
        if self._pending is not None:
            raise HttpError(400, "connection closed mid-body")
        if self._buffer.strip():
            raise HttpError(400, "connection closed mid-head")


async def read_response(reader: asyncio.StreamReader) -> Response:
    """Frame one response off the stream (client side)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial.strip():
            raise HttpError(502, "connection closed before the response head") from None
        raise HttpError(400, "connection closed mid-head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, f"head exceeds {MAX_HEAD_BYTES} bytes") from None
    response = parse_response_head(head)
    length = _body_length(response.headers, "response")
    if length:
        response.body = await reader.readexactly(length)
    return response
