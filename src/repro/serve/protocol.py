"""Hand-rolled HTTP/1.1 framing over asyncio streams.

The serving layer is stdlib-only by contract (ROADMAP: "asyncio HTTP
service, stdlib, no new deps"), so this module implements the slice of
HTTP/1.1 the recommendation service needs and nothing more: request-line
+ header parsing with hard size caps, ``Content-Length`` bodies,
keep-alive connection reuse, and deterministic response serialization.
Unsupported protocol features fail *closed* with the standard status
code (``411`` for missing lengths, ``413`` for oversized bodies, ``431``
for oversized header blocks, ``501`` for transfer encodings) rather than
being half-implemented.

Parsing is pure — no clocks, no randomness — so the module sits inside
the ``wall-clock`` analysis scope without an allowlist entry: timeouts
and latency measurement belong to the server loop and the measured
application layer (:mod:`repro.serve.app`), not to the framing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import NoReturn

__all__ = [
    "MAX_HEADER_BYTES",
    "REASON_PHRASES",
    "HttpRequest",
    "HttpResponse",
    "ProtocolError",
    "json_response",
    "read_request",
    "render_response",
]

#: Cap on the request line plus the whole header block.  Recommendation
#: requests carry their payload in the body; a header block anywhere
#: near this size is malformed or hostile.
MAX_HEADER_BYTES = 16 * 1024

#: Reason phrases for every status the service emits.
REASON_PHRASES: dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """A request the framing layer refuses to parse.

    Attributes:
        status: HTTP status code the server should answer with.
        detail: human-readable reason, returned in the error body.
    """

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request.

    Attributes:
        method: request method, upper-case (``GET``, ``POST``, ...).
        target: request target path, query string included verbatim.
        headers: header fields with lower-cased names; on duplicates the
            last occurrence wins (none of the fields the service reads
            are list-valued).
        body: raw request body (``b""`` when there is none).
    """

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """Decode the body as UTF-8 JSON.

        The non-standard ``NaN``, ``Infinity`` and ``-Infinity`` tokens
        Python's decoder would otherwise accept are rejected.

        Raises:
            ProtocolError: with status 400 on undecodable or invalid
                JSON — malformed payloads are the *client's* error.
        """
        try:
            return _DECODER.decode(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"invalid JSON body: {exc}") from None


def _reject_constant(token: str) -> NoReturn:
    raise ProtocolError(400, f"invalid JSON body: non-finite constant {token}")


# Built once: ``json.loads`` with any keyword builds a decoder per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@dataclass(frozen=True)
class HttpResponse:
    """One response ready for serialization.

    Attributes:
        status: HTTP status code (must be in :data:`REASON_PHRASES`).
        body: response payload bytes.
        content_type: ``Content-Type`` header value.
        headers: extra headers, rendered after the standard ones.
    """

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(
    status: int, payload: object, headers: dict[str, str] | None = None
) -> HttpResponse:
    """Build a JSON response with deterministic (sorted-key) encoding."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return HttpResponse(
        status=status,
        body=body.encode("utf-8"),
        headers=dict(headers or {}),
    )


def render_response(response: HttpResponse, *, keep_alive: bool) -> bytes:
    """Serialize a response, including framing headers.

    ``Content-Length`` is always present (the service never chunks), so
    clients can pipeline reads; ``Connection`` reflects ``keep_alive``.
    """
    reason = REASON_PHRASES.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + response.body


async def _read_head(reader: asyncio.StreamReader) -> list[str] | None:
    """Read request line + headers up to the blank line, or None on EOF."""
    raw = b""
    while b"\r\n\r\n" not in raw and b"\n\n" not in raw:
        try:
            chunk = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and not raw:
                return None  # clean EOF between requests
            raise ProtocolError(400, "truncated request head") from None
        except asyncio.LimitOverrunError:
            raise ProtocolError(431, "request head line too long") from None
        raw += chunk
        if len(raw) > MAX_HEADER_BYTES:
            raise ProtocolError(431, "request head too large")
        if chunk in (b"\r\n", b"\n"):
            break
    text = raw.decode("latin-1")  # latin-1 is total: never raises
    return [line.rstrip("\r") for line in text.split("\n")]


async def read_request(
    reader: asyncio.StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream.

    Returns ``None`` on a clean end-of-stream between requests (the
    keep-alive loop's normal exit).  Raises :class:`ProtocolError` on
    anything malformed; the server answers with the error's status and
    closes the connection, because after a framing error the stream
    position is unreliable.

    Args:
        reader: the connection's stream reader.
        max_body_bytes: hard cap on ``Content-Length``; larger bodies
            are rejected with 413 *before* being read.
    """
    head = await _read_head(reader)
    if head is None:
        return None
    request_line = head[0].strip()
    if not request_line:
        raise ProtocolError(400, "empty request line")
    parts = request_line.split()
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(400, f"unsupported HTTP version: {version!r}")
    if not target.startswith("/"):
        raise ProtocolError(400, f"malformed request target: {target!r}")

    headers: dict[str, str] = {}
    for line in head[1:]:
        if not line.strip():
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise ProtocolError(501, "transfer encodings are not supported")

    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(
                400, f"malformed Content-Length: {length_text!r}"
            ) from None
        if length < 0:
            raise ProtocolError(400, "negative Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(
                413, f"body of {length} bytes exceeds the {max_body_bytes} cap"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError(400, "truncated request body") from None
    elif method.upper() in ("POST", "PUT", "PATCH"):
        raise ProtocolError(411, "Content-Length required")

    return HttpRequest(
        method=method.upper(), target=target, headers=headers, body=body
    )
