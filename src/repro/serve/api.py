"""The service wire protocol: newline-delimited JSON over TCP.

One request or reply per line, UTF-8 JSON with no embedded newlines —
trivially debuggable with ``nc`` and line-buffered by construction, so
the asyncio reader can frame messages by newline (:func:`read_line`).
A line longer than :data:`MAX_LINE_BYTES` is discarded whole and
answered with one ``error`` reply; the connection stays open.  Three
operations travel client→server: ``search`` (the payload of
:class:`SearchRequest`), ``stats`` (scheduler counter snapshot), and
``shutdown`` (graceful drain; accepted only from a loopback peer,
anyone else gets an ``error`` reply).  Every search produces exactly one
:class:`SearchReply` whose ``status`` is ``ok`` (a move), ``shed``
(explicit load-shedding rejection — the request was *not* silently
dropped), or ``error`` (malformed request or a search failure).

Positions are named, not pickled: a request carries a workload name
from the Table 3 suite (or a server-side custom catalog) plus a path of
move indices from that workload's root, resolved with
:func:`repro.games.base.follow_path`.  That keeps the wire format plain
data — no code crosses the socket.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import ServeError
from ..obs.reqtrace import RequestTiming, timing_from_wire

__all__ = [
    "MAX_LINE_BYTES",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITIES",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "SearchReply",
    "SearchRequest",
    "decode_line",
    "encode_line",
    "read_line",
]

#: Priority classes, higher is more important.  Admission control sheds
#: from the lowest class first; FIFO order holds within a class.
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2
PRIORITIES = (PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_ERROR = "error"


#: Longest protocol line a server reads, newline excluded; also the
#: stream reader's buffer limit.
MAX_LINE_BYTES = 1 << 16


async def read_line(reader: asyncio.StreamReader) -> bytes:
    """The next protocol line (``b""`` at end of input).

    Raises :class:`ServeError` for a line longer than the reader's limit
    (:data:`MAX_LINE_BYTES` on the server), after discarding it through
    its newline — including any part still in flight — so the next call
    reads the next line.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as eof:
        return eof.partial  # a last line without its newline, or b""
    except asyncio.LimitOverrunError as overrun:
        skip = overrun.consumed
    while True:
        try:
            await reader.readexactly(skip)
            await reader.readuntil(b"\n")
            break
        except asyncio.LimitOverrunError as overrun:
            skip = overrun.consumed
        except asyncio.IncompleteReadError:
            break  # the peer closed mid-line; the next read sees the end
    raise ServeError(f"protocol line longer than {MAX_LINE_BYTES} bytes")


def encode_line(payload: Mapping[str, object]) -> bytes:
    """One protocol message: compact JSON plus the framing newline."""
    return json.dumps(dict(payload), separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict[str, object]:
    """Parse one protocol line; raises :class:`ServeError` on garbage."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"undecodable protocol line: {error}") from error
    if not isinstance(payload, dict):
        raise ServeError(f"protocol message must be a JSON object, got {type(payload).__name__}")
    return payload


def _require_str(payload: Mapping[str, object], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ServeError(f"request field {key!r} must be a non-empty string")
    return value


@dataclass(frozen=True)
class SearchRequest:
    """One "best move" query.

    Attributes:
        request_id: client-chosen correlation id, echoed on the reply.
        workload: workload name in the server's catalog (Table 3 suite
            names — ``R1``..``O3`` — by default).
        scale: suite scale (``reduced``/``paper``); ignored by servers
            running a custom catalog.
        path: move indices from the workload's root to the position to
            move from (empty = the root itself).
        max_depth: deepest iterative-deepening iteration.
        deadline_s: seconds from *admission* after which the best
            answer so far is returned instead of deepening further
            (``None`` = always reach ``max_depth``).  At least one
            iteration always runs: an admitted request is never
            answered with no move.
        priority: one of :data:`PRIORITIES`; higher survives shedding
            longer.
        span_id: root span id of this request's trace tree
            (:class:`repro.obs.reqtrace.TraceContext`).  The client
            originates it (:class:`~repro.serve.client.ServiceClient`
            fills it in automatically); empty means "untraced caller"
            and the server substitutes ``root``.
    """

    request_id: str
    workload: str
    scale: str = "reduced"
    path: tuple[int, ...] = ()
    max_depth: int = 3
    deadline_s: Optional[float] = None
    priority: int = PRIORITY_NORMAL
    span_id: str = ""

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ServeError("request_id must be non-empty")
        if self.max_depth < 1:
            raise ServeError("max_depth must be at least 1")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ServeError("deadline_s must be non-negative")
        if self.priority not in PRIORITIES:
            raise ServeError(
                f"priority {self.priority!r} not one of {PRIORITIES}"
            )

    def to_wire(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "op": "search",
            "request_id": self.request_id,
            "workload": self.workload,
            "scale": self.scale,
            "path": list(self.path),
            "max_depth": self.max_depth,
            "priority": self.priority,
        }
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        if self.span_id:
            payload["span_id"] = self.span_id
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "SearchRequest":
        raw_path = payload.get("path", [])
        if not isinstance(raw_path, list) or not all(
            isinstance(step, int) and not isinstance(step, bool) and step >= 0
            for step in raw_path
        ):
            raise ServeError("request field 'path' must be a list of non-negative ints")
        max_depth = payload.get("max_depth", 3)
        if not isinstance(max_depth, int) or isinstance(max_depth, bool):
            raise ServeError("request field 'max_depth' must be an integer")
        deadline = payload.get("deadline_s")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise ServeError("request field 'deadline_s' must be a number")
        priority = payload.get("priority", PRIORITY_NORMAL)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServeError("request field 'priority' must be an integer")
        scale = payload.get("scale", "reduced")
        if not isinstance(scale, str):
            raise ServeError("request field 'scale' must be a string")
        span_id = payload.get("span_id", "")
        if not isinstance(span_id, str):
            raise ServeError("request field 'span_id' must be a string")
        return cls(
            request_id=_require_str(payload, "request_id"),
            workload=_require_str(payload, "workload"),
            scale=scale,
            path=tuple(raw_path),
            max_depth=max_depth,
            deadline_s=None if deadline is None else float(deadline),
            priority=priority,
            span_id=span_id,
        )


@dataclass(frozen=True)
class SearchReply:
    """The exactly-once resolution of one request.

    ``anytime`` marks an ``ok`` reply whose deadline fired before
    ``max_depth``: the move is the best of the deepest *completed*
    iteration (``depth_reached``), the iterative-deepening anytime
    guarantee.  ``shed`` replies carry the shedding reason in
    ``detail`` (``rejected`` at admission, ``evicted`` by a
    higher-priority arrival, ``shutdown`` during drain).

    ``timing`` is the server's conserved latency decomposition
    (:class:`repro.obs.reqtrace.RequestTiming`) for requests that ran;
    shed requests have none.  The block is wire-versioned: replies from
    a newer server decode with ``timing=None`` rather than failing.
    """

    request_id: str
    status: str
    move_index: int = -1
    value: float = 0.0
    depth_reached: int = 0
    per_move_values: tuple[float, ...] = ()
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    anytime: bool = False
    detail: str = ""
    timing: Optional[RequestTiming] = None

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_SHED, STATUS_ERROR):
            raise ServeError(f"unknown reply status {self.status!r}")

    def to_wire(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "op": "reply",
            "request_id": self.request_id,
            "status": self.status,
            "move_index": self.move_index,
            "value": self.value,
            "depth_reached": self.depth_reached,
            "per_move_values": list(self.per_move_values),
            "latency_s": self.latency_s,
            "queue_wait_s": self.queue_wait_s,
            "anytime": self.anytime,
            "detail": self.detail,
        }
        if self.timing is not None:
            payload["timing"] = self.timing.to_wire()
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "SearchReply":
        values = payload.get("per_move_values", [])
        if not isinstance(values, list):
            raise ServeError("reply field 'per_move_values' must be a list")
        status = payload.get("status")
        if not isinstance(status, str):
            raise ServeError("reply field 'status' must be a string")
        move_index = payload.get("move_index", -1)
        if not isinstance(move_index, int) or isinstance(move_index, bool):
            raise ServeError("reply field 'move_index' must be an integer")
        depth = payload.get("depth_reached", 0)
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise ServeError("reply field 'depth_reached' must be an integer")
        try:
            timing = timing_from_wire(payload.get("timing"))
        except ValueError as error:
            raise ServeError(f"reply field 'timing' is malformed: {error}") from error
        return cls(
            request_id=_require_str(payload, "request_id"),
            status=status,
            move_index=move_index,
            value=float(_as_number(payload.get("value", 0.0), "value")),
            depth_reached=depth,
            per_move_values=tuple(
                float(_as_number(v, "per_move_values")) for v in values
            ),
            latency_s=float(_as_number(payload.get("latency_s", 0.0), "latency_s")),
            queue_wait_s=float(
                _as_number(payload.get("queue_wait_s", 0.0), "queue_wait_s")
            ),
            anytime=bool(payload.get("anytime", False)),
            detail=str(payload.get("detail", "")),
            timing=timing,
        )


def _as_number(value: object, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ServeError(f"reply field {key!r} must be a number")
    return float(value)
