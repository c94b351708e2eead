"""A small asyncio client for the search service.

Used by the network-path tests and ``repro-gametree profile-service
--connect``; the in-process batteries talk to :meth:`SearchService.handle` directly.
The client supports pipelining: many :meth:`ServiceClient.search` calls
may be outstanding at once over the one connection, and replies are
matched back to callers by ``request_id`` (the server replies in
completion order, not submission order).
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Optional

from ..errors import ServeError
from .api import SearchReply, SearchRequest, decode_line, encode_line

__all__ = ["ServiceClient"]


class ServiceClient:
    """One NDJSON connection to a :class:`~repro.serve.server.SearchService`.

    The client originates the trace context: a request submitted without
    a ``span_id`` gets a per-connection one (``c1``, ``c2``, ...), so
    every request this client sends is addressable in the server's
    request-scoped traces without callers doing anything.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._span_seq = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._write_lock = asyncio.Lock()
        self._read_lock = asyncio.Lock()
        self._pending: dict[str, "asyncio.Future[SearchReply]"] = {}
        self._stats: Optional["asyncio.Future[dict[str, object]]"] = None
        self._shutdown_ack: Optional["asyncio.Future[None]"] = None

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        return self

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    def _require_open(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._reader is None or self._writer is None:
            raise ServeError("client is not connected")
        return self._reader, self._writer

    async def _send(self, payload: dict[str, object]) -> None:
        _, writer = self._require_open()
        async with self._write_lock:
            writer.write(encode_line(payload))
            await writer.drain()

    async def _read_until(self, done: "asyncio.Future[object]") -> None:
        """Demultiplex incoming lines until ``done`` resolves.

        Only one caller reads the socket at a time; everyone else waits
        on the future their reply will resolve.  Replies for *other*
        callers encountered along the way are routed to their futures —
        that is what makes pipelined searches safe.
        """
        reader, _ = self._require_open()
        while not done.done():
            async with self._read_lock:
                # A reply routed to us while we waited for the lock means
                # another caller already read our line — nothing to do.
                if done.done():
                    break
                line = await reader.readline()
            if not line:
                raise ServeError("server closed the connection mid-reply")
            payload = decode_line(line)
            op = payload.get("op")
            if op == "reply":
                reply = SearchReply.from_wire(payload)
                waiter = self._pending.pop(reply.request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(reply)
            elif op == "stats":
                stats_waiter, self._stats = self._stats, None
                if stats_waiter is not None and not stats_waiter.done():
                    stats_waiter.set_result(
                        {k: v for k, v in payload.items() if k != "op"}
                    )
            elif op == "shutdown-ack":
                ack_waiter, self._shutdown_ack = self._shutdown_ack, None
                if ack_waiter is not None and not ack_waiter.done():
                    ack_waiter.set_result(None)
            else:
                raise ServeError(f"unexpected server message op {op!r}")

    async def search(self, request: SearchRequest) -> SearchReply:
        """Submit one request; awaits its reply (pipelining-safe)."""
        if request.request_id in self._pending:
            raise ServeError(
                f"request_id {request.request_id!r} already in flight"
            )
        if not request.span_id:
            self._span_seq += 1
            request = replace(request, span_id=f"c{self._span_seq}")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SearchReply]" = loop.create_future()
        self._pending[request.request_id] = future
        await self._send(request.to_wire())
        await self._read_until(future)
        return future.result()

    async def stats(self) -> dict[str, object]:
        """Fetch the server's live counter snapshot."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[dict[str, object]]" = loop.create_future()
        self._stats = future
        await self._send({"op": "stats"})
        await self._read_until(future)
        return future.result()

    async def shutdown_server(self) -> None:
        """Ask the server to drain and stop; returns at the ack."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        self._shutdown_ack = future
        await self._send({"op": "shutdown"})
        await self._read_until(future)
        future.result()
