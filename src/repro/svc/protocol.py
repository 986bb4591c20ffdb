"""The sweep-service wire protocol: newline-delimited JSON over a socket.

One request per line, one response per line, in order. Every message is a
single JSON object; requests carry an ``op`` plus op-specific fields,
responses carry ``ok`` (bool) plus either the op's payload or an
``error`` string. The protocol is versioned (:data:`PROTOCOL_VERSION`,
echoed by ``ping``) independently of the job wire schema
(:data:`repro.analysis.runner.JOB_WIRE_SCHEMA_VERSION`, which versions the
job payloads riding inside ``submit``).

Ops
---

========  ============================================================
op        request fields → response payload
========  ============================================================
ping      → ``protocol``, ``server``, ``workers``
submit    ``jobs`` (list of job wire dicts), ``priority`` (int, default
          0) → ``job_ids``, ``keys``
status    ``id`` (optional) → ``jobs`` (list of status records)
result    ``id``, ``wait`` (bool), ``timeout`` (seconds) → ``state``,
          ``kind``, ``result`` (sim result dict / security per-seed
          list / campaign cell record)
cancel    ``id`` → ``state``
cache     → ``cache`` (occupancy), ``metrics`` (obs snapshot),
          ``queue_depth``, ``workers``
shutdown  → ``stopping``
========  ============================================================

Framing is plain ``\\n``-terminated UTF-8; a request over
:data:`MAX_LINE_BYTES` is refused (protects the daemon from a runaway
client). All encoding is canonical (sorted keys) so identical payloads
are byte-identical on the wire.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

#: Bump on any incompatible change to the request/response envelope.
PROTOCOL_VERSION = 1

#: Hard per-line bound, requests and responses alike.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The closed set of request operations.
OPS = ("ping", "submit", "status", "result", "cancel", "cache", "shutdown")


class ProtocolError(ValueError):
    """A malformed or oversized wire message."""


def encode(message: dict) -> bytes:
    """One canonical ndjson line (sorted keys, compact separators)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line bound"
        )
    return data


def decode(line: bytes) -> dict:
    """Parse one wire line into a message object."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line bound"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable wire line: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"wire message must be an object, got {type(message).__name__}"
        )
    return message


def parse_request(message: dict) -> Tuple[str, dict]:
    """Validate a request envelope; returns ``(op, message)``."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return op, message


def ok(**payload: object) -> dict:
    """A success response envelope."""
    out: Dict[str, object] = {"ok": True}
    out.update(payload)
    return out


def error(message: str, **payload: object) -> dict:
    """An error response envelope."""
    out: Dict[str, object] = {"ok": False, "error": message}
    out.update(payload)
    return out


def response_error(response: dict) -> Optional[str]:
    """The error string of a failed response, None for a success."""
    if not isinstance(response, dict) or response.get("ok") is not True:
        if isinstance(response, dict):
            return str(response.get("error", "malformed response"))
        return "malformed response"
    return None
