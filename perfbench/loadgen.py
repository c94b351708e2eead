"""Seeded request sets and the open-loop Poisson load generator.

Every input of a serve workload comes from the benchmark's ``--seed``:
which positions are asked, in which order, and when each request is
due.  The service sees only the requests.

:func:`drive` sends on schedule whatever the service does, from one
process over at most ``nproc`` connections, and times each request from
its due time, so a stall also charges the requests it delays.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from repro.games.base import Game
from repro.serve import SearchReply, SearchRequest
from repro.serve.api import decode_line, encode_line

#: One asked position: (workload name, move path from its root).
Position = tuple[str, tuple[int, ...]]


def walk_positions(
    seed: int,
    games: Mapping[str, Game],
    per_game: int,
    path_len: int,
    moves: tuple[int, int],
) -> list[Position]:
    """``per_game`` distinct positions ``path_len`` moves from each root.

    All positions sit at the same depth below their root, so a warm
    shared table only ever holds one proof depth per position and its
    answers equal a fixed-depth serial search.  Each has between
    ``moves[0]`` and ``moves[1]`` legal moves: a request's work grows
    with the moves of its position, and the band keeps one seed's
    request mix as costly as another's.
    """
    rng = random.Random(seed)
    chosen: list[Position] = []
    for name in sorted(games):
        game = games[name]
        found: set[tuple[int, ...]] = set()
        for _ in range(1000 * per_game):
            if len(found) == per_game:
                break
            position = game.root()
            path: list[int] = []
            for _ in range(path_len):
                children = game.children(position)
                if not children:
                    break
                path.append(rng.randrange(len(children)))
                position = children[path[-1]]
            if len(path) == path_len and moves[0] <= len(game.children(position)) <= moves[1]:
                found.add(tuple(path))
        if len(found) < per_game:
            raise RuntimeError(
                f"{name}: only {len(found)} positions {path_len} moves deep with {moves} moves"
            )
        chosen.extend((name, path) for path in sorted(found))
    return chosen


def split_fresh(
    seed: int, positions: Sequence[Position], per_game: int
) -> tuple[list[Position], list[Position]]:
    """Split ``positions`` into primed ones and ``per_game`` fresh ones per game.

    Fresh positions are never primed, so asking one makes the service
    search it: table misses, stores and worker tasks.
    """
    rng = random.Random(f"{seed}/fresh")
    fresh: list[Position] = []
    for name in sorted({workload for workload, _ in positions}):
        mine = [p for p in positions if p[0] == name]
        fresh.extend(sorted(rng.sample(mine, per_game)))
    return [p for p in positions if p not in fresh], fresh


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``offset_s`` after its phase starts."""

    offset_s: float
    request: SearchRequest


def poisson_arrivals(
    seed: int,
    label: str,
    positions: Sequence[Position],
    rate: float,
    duration_s: float,
    max_depth: int,
) -> list[Arrival]:
    """Poisson arrivals at ``rate`` per second for ``duration_s`` seconds.

    Requests come from :func:`request_stream`.  ``label`` names the
    phase; it prefixes the request ids and, with the seed, keys the
    random streams, so phases of one run draw independent streams.
    """
    gaps = random.Random(f"{seed}/{label}/gaps")
    requests = request_stream(seed, label, positions, max_depth)
    arrivals: list[Arrival] = []
    offset = gaps.expovariate(rate)
    while offset < duration_s:
        arrivals.append(Arrival(offset, next(requests)))
        offset += gaps.expovariate(rate)
    return arrivals


def request_stream(
    seed: int, label: str, positions: Sequence[Position], max_depth: int
) -> Iterator[SearchRequest]:
    """An endless seeded stream of requests drawn uniformly from ``positions``."""
    rng = random.Random(f"{seed}/{label}")
    for index in itertools.count():
        workload, path = positions[rng.randrange(len(positions))]
        yield SearchRequest(
            request_id=f"{label}-{index}", workload=workload, path=path, max_depth=max_depth
        )


@dataclass
class Sample:
    """What the client saw of one request; times are ``perf_counter`` seconds."""

    request: SearchRequest
    due: float
    sent: float = math.nan
    received: float = math.nan
    reply: Optional[SearchReply] = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        """Due-to-reply time; infinite when the request got no reply."""
        if self.reply is None:
            return math.inf
        return (self.received - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1e3


class Connection:
    """One NDJSON connection to the service, read by a single reader task.

    Requests and replies go through the program's own wire codec
    (:func:`repro.serve.api.encode_line`, :meth:`SearchReply.from_wire`).
    Replies are matched to their requests by id and timestamped as soon
    as their line is decoded.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[str, asyncio.Future[tuple[SearchReply, float]]] = {}
        self._task = asyncio.get_running_loop().create_task(self._read_replies())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_replies(self) -> None:
        try:
            while line := await self._reader.readline():
                reply = SearchReply.from_wire(decode_line(line))
                received = time.perf_counter()
                waiter = self._pending.pop(reply.request_id, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((reply, received))
        finally:
            for waiter in self._pending.values():
                if not waiter.done():
                    waiter.set_exception(ConnectionError("service closed the connection"))

    def send(self, request: SearchRequest) -> asyncio.Future[tuple[SearchReply, float]]:
        waiter = asyncio.get_running_loop().create_future()
        self._pending[request.request_id] = waiter
        self._writer.write(encode_line(request.to_wire()))
        return waiter

    async def close(self) -> None:
        self._writer.close()
        await self._writer.wait_closed()
        await self._task


async def drive(
    connections: Sequence[Connection],
    arrivals: Sequence[Arrival],
    *,
    max_outstanding: int,
    timeout_s: float,
) -> list[Sample]:
    """Send ``arrivals`` on schedule, round-robin over ``connections``.

    Once ``max_outstanding`` requests await replies, the next request
    waits for a reply before it is sent, so the service's queue never
    overflows; it still counts its latency from its due time.
    """
    start = time.perf_counter()
    samples: list[Sample] = []
    waiters: list[asyncio.Future[tuple[SearchReply, float]]] = []
    outstanding = 0
    freed = asyncio.Event()

    def settle(sample: Sample, waiter: asyncio.Future[tuple[SearchReply, float]]) -> None:
        nonlocal outstanding
        outstanding -= 1
        freed.set()
        if waiter.cancelled():
            sample.error = "timeout"
        elif waiter.exception() is not None:
            sample.error = repr(waiter.exception())
        else:
            sample.reply, sample.received = waiter.result()

    for index, arrival in enumerate(arrivals):
        due = start + arrival.offset_s
        # Poll instead of sleeping: event-loop timers fire up to a
        # millisecond late, and a generator that idles between sends lets
        # its CPU go idle, which on a virtual machine slows every wake-up.
        while time.perf_counter() < due:
            await asyncio.sleep(0)
        while outstanding >= max_outstanding:
            freed.clear()
            await freed.wait()
        sample = Sample(arrival.request, due)
        samples.append(sample)
        outstanding += 1
        sample.sent = time.perf_counter()
        waiter = connections[index % len(connections)].send(arrival.request)
        waiter.add_done_callback(functools.partial(settle, sample))
        waiters.append(waiter)
    if waiters:
        _, late = await asyncio.wait(waiters, timeout=timeout_s)
        for waiter in late:
            waiter.cancel()
    return samples


async def closed_loop(
    connections: Sequence[Connection],
    requests: Iterator[SearchRequest],
    callers: int,
    seconds: float,
    *,
    timeout_s: float,
) -> tuple[list[Sample], float]:
    """``callers`` callers each send their next request when the last reply lands.

    Callers share ``connections`` round-robin and stop starting requests
    after ``seconds``.  A request is due when its caller sends it.
    Returns the samples and the seconds until the last reply.
    """
    start = time.perf_counter()
    end = start + seconds
    samples: list[Sample] = []

    async def caller(index: int) -> None:
        connection = connections[index % len(connections)]
        while time.perf_counter() < end:
            sample = Sample(next(requests), time.perf_counter())
            sample.sent = sample.due
            samples.append(sample)
            try:
                sample.reply, sample.received = await asyncio.wait_for(
                    connection.send(sample.request), timeout_s
                )
            except (asyncio.TimeoutError, ConnectionError) as error:
                sample.error = repr(error)

    await asyncio.gather(*(caller(index) for index in range(callers)))
    return samples, time.perf_counter() - start
