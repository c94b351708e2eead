"""Service-level tests: the TCP wire, lifecycle, and pool integration.

Covers what the scheduler battery (fake engine) and the parity battery
(values) do not: NDJSON framing and malformed-input replies, pipelined
requests over one connection, the stats and shutdown ops, graceful
drain over the network, anytime deadlines against the real pool, and
the persistent-pool plumbing through ``multiproc_er``/``GameEngine``.
"""

from __future__ import annotations

import asyncio
import gc
import urllib.request
import weakref

import pytest
from conftest import shm_names, wait_for_no_children

from repro.engine import EngineConfig, GameEngine
from repro.errors import SearchError, ServeError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.parallel.multiproc import multiproc_er
from repro.search.alphabeta import alphabeta
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    SearchReply,
    SearchRequest,
    SearchService,
    ServeConfig,
)
from repro.serve.api import MAX_LINE_BYTES, decode_line, encode_line, read_line
from repro.serve.client import ServiceClient
from repro.serve.pool import EnginePool


def run(coro):
    return asyncio.run(coro)


# -- wire protocol ----------------------------------------------------------


class TestWireFormat:
    def test_request_roundtrip(self) -> None:
        request = SearchRequest(
            request_id="x1",
            workload="R3",
            path=(0, 2),
            max_depth=4,
            deadline_s=1.5,
            priority=2,
        )
        assert SearchRequest.from_wire(request.to_wire()) == request

    def test_reply_roundtrip(self) -> None:
        reply = SearchReply(
            request_id="x1",
            status=STATUS_OK,
            move_index=3,
            value=-12.0,
            depth_reached=2,
            per_move_values=(1.0, -12.0),
            latency_s=0.25,
            queue_wait_s=0.1,
            anytime=True,
        )
        assert SearchReply.from_wire(reply.to_wire()) == reply

    def test_decode_rejects_garbage(self) -> None:
        with pytest.raises(ServeError):
            decode_line(b"not json\n")
        with pytest.raises(ServeError):
            decode_line(b"[1, 2]\n")

    def test_from_wire_rejects_bad_fields(self) -> None:
        base = SearchRequest(request_id="a", workload="w").to_wire()
        for corrupt in (
            {**base, "path": [0, -1]},
            {**base, "path": [True]},
            {**base, "max_depth": "deep"},
            {**base, "priority": 7},
            {**base, "request_id": ""},
        ):
            with pytest.raises(ServeError):
                SearchRequest.from_wire(corrupt)

    def test_encode_line_is_single_framed_line(self) -> None:
        line = encode_line({"op": "stats"})
        assert line.endswith(b"\n") and line.count(b"\n") == 1


# -- TCP service ------------------------------------------------------------


def small_config(**overrides) -> ServeConfig:
    defaults = dict(n_workers=2, max_concurrency=2, queue_limit=8)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestReadLine:
    """Framing below the service: an over-limit line is dropped whole,
    whether it arrives in one chunk or across many."""

    @staticmethod
    def read_all(chunks: list[bytes], limit: int = 16) -> list[object]:
        async def scenario():
            reader = asyncio.StreamReader(limit=limit)
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            out: list[object] = []
            while True:
                try:
                    line = await read_line(reader)
                except ServeError:
                    out.append(ServeError)
                    continue
                if not line:
                    return out
                out.append(line)

        return run(scenario())

    def test_oversize_line_in_one_chunk(self) -> None:
        assert self.read_all([b"a\n" + b"x" * 40 + b"\nb\n"]) == [b"a\n", ServeError, b"b\n"]

    def test_oversize_line_across_chunks(self) -> None:
        chunks = [b"a\n", b"x" * 20, b"x" * 20, b"x" * 5 + b"\nb\n"]
        assert self.read_all(chunks) == [b"a\n", ServeError, b"b\n"]

    def test_end_of_input_inside_an_oversize_line(self) -> None:
        assert self.read_all([b"a\n", b"x" * 40]) == [b"a\n", ServeError]

    def test_last_line_without_newline(self) -> None:
        assert self.read_all([b"a\nb"]) == [b"a\n", b"b"]


class TestServiceOverTCP:
    def test_pipelined_searches_and_stats(self) -> None:
        async def scenario():
            async with SearchService(small_config()) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    requests = [
                        SearchRequest(request_id=f"q{i}", workload="R3", max_depth=2)
                        for i in range(5)
                    ]
                    replies = await asyncio.gather(
                        *(client.search(r) for r in requests)
                    )
                    stats = await client.stats()
                return replies, stats

        replies, stats = run(scenario())
        assert [r.status for r in replies] == [STATUS_OK] * 5
        assert len({r.request_id for r in replies}) == 5
        assert stats["submitted"] == 5 and stats["completed"] == 5
        assert stats["in_flight"] == 0

    def test_malformed_lines_get_error_replies(self) -> None:
        async def scenario():
            async with SearchService(small_config()) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                writer.write(encode_line({"op": "mystery"}))
                writer.write(encode_line({"op": "search", "request_id": "bad"}))
                await writer.drain()
                lines = [await reader.readline() for _ in range(3)]
                writer.close()
                await writer.wait_closed()
            return [decode_line(line) for line in lines]

        replies = run(scenario())
        assert all(r["status"] == STATUS_ERROR for r in replies)
        assert replies[2]["request_id"] == "bad"  # echoed when parseable

    def test_oversize_line_gets_one_error_reply_and_the_connection_lives(self) -> None:
        """A line past the framing limit, pipelined between a search and
        ``stats``, costs exactly one error reply: the search before it
        and the request after it are still answered, in order, and the
        service leaves no shared-memory segment behind."""
        shm_before = shm_names()

        async def scenario():
            async with SearchService(small_config()) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    encode_line(
                        SearchRequest(request_id="s1", workload="R3", max_depth=2).to_wire()
                    )
                )
                # 200 KB in several writes, so the tail arrives after the
                # reader has already hit the limit.
                for _ in range(4):
                    writer.write(b"x" * 50_000)
                    await writer.drain()
                writer.write(b"\n")
                writer.write(encode_line({"op": "stats"}))
                await writer.drain()
                lines = [
                    await asyncio.wait_for(reader.readline(), timeout=30) for _ in range(3)
                ]
                writer.close()
                await writer.wait_closed()
            return [decode_line(line) for line in lines]

        replies = run(scenario())
        by_kind = {
            reply["status"] if reply["op"] == "reply" else reply["op"]: reply for reply in replies
        }
        assert len(replies) == 3 and set(by_kind) == {STATUS_OK, STATUS_ERROR, "stats"}
        assert by_kind[STATUS_OK]["request_id"] == "s1"
        assert str(MAX_LINE_BYTES) in str(by_kind[STATUS_ERROR]["detail"])
        assert "submitted" in by_kind["stats"]
        assert wait_for_no_children() == []
        assert shm_names() - shm_before == set()

    def test_unknown_workload_and_over_limit_depth_rejected_pre_admission(self) -> None:
        async def scenario():
            async with SearchService(small_config(max_depth_limit=3)) as service:
                bad_workload = await service.handle(
                    SearchRequest(request_id="a", workload="NOPE")
                )
                too_deep = await service.handle(
                    SearchRequest(request_id="b", workload="R3", max_depth=9)
                )
                assert service.scheduler is not None
                return bad_workload, too_deep, dict(service.scheduler.counters)

        bad_workload, too_deep, counters = run(scenario())
        assert bad_workload.status == STATUS_ERROR
        assert "unknown workload" in bad_workload.detail
        assert too_deep.status == STATUS_ERROR
        assert "exceeds the service limit" in too_deep.detail
        assert counters["submitted"] == 0, "invalid requests must not be admitted"

    def test_deadline_yields_anytime_move(self) -> None:
        async def scenario():
            async with SearchService(small_config()) as service:
                return await service.handle(
                    SearchRequest(
                        request_id="rush",
                        workload="R1",
                        max_depth=6,
                        deadline_s=0.0,  # expires immediately: one iteration only
                    )
                )

        reply = run(scenario())
        assert reply.status == STATUS_OK
        assert reply.anytime is True
        assert reply.depth_reached == 1
        assert reply.move_index >= 0

    def test_shutdown_op_drains_and_stops(self) -> None:
        async def scenario():
            service = await SearchService(small_config()).start()
            host, port = service.address
            async with ServiceClient(host, port) as client:
                reply = await client.search(
                    SearchRequest(request_id="last", workload="R3", max_depth=2)
                )
                await client.shutdown_server()
            await service.serve_until_shutdown()
            assert service.scheduler is not None
            problems = service.scheduler.conservation_problems()
            return reply, problems, service.pool, service.final_counters

        reply, problems, pool, final = run(scenario())
        assert reply.status == STATUS_OK
        assert problems == []
        assert pool is not None and pool.closed
        assert final.get("tasks_completed", 0) > 0

    def test_requests_after_shutdown_are_shed_with_reason(self) -> None:
        async def scenario():
            service = await SearchService(small_config()).start()
            await service.shutdown()
            assert service.scheduler is not None
            return await service.scheduler.submit(
                SearchRequest(request_id="late", workload="R3")
            )

        reply = run(scenario())
        assert reply.status == "shed"
        assert reply.detail == "shutdown"

    def test_metrics_endpoint_scrapes_while_serving(self) -> None:
        async def scenario():
            async with SearchService(small_config(metrics_port=0)) as service:
                await service.handle(
                    SearchRequest(request_id="m", workload="R3", max_depth=2)
                )
                url = service.metrics_url
                assert url is not None
                text = await asyncio.to_thread(
                    lambda: urllib.request.urlopen(url, timeout=5).read().decode()
                )
            return text

        text = run(scenario())
        assert "repro_serve_requests_completed 1" in text
        assert "repro_serve_latency_seconds_count 1" in text

    def test_stopped_service_is_freed_without_the_cycle_collector(self) -> None:
        # A stopped service must not sit in a reference cycle: a
        # restarting host would otherwise keep every old service, its
        # metrics and its pool until the collector happens to run.
        async def scenario():
            service = await SearchService(small_config(metrics_port=0)).start()
            host, port = service.address
            async with ServiceClient(host, port) as client:
                await client.search(
                    SearchRequest(request_id="tcp", workload="R3", max_depth=2)
                )
            await service.handle(
                SearchRequest(request_id="local", workload="R3", max_depth=2)
            )
            await service.shutdown()
            assert service.scheduler is not None
            assert service.scheduler.conservation_problems() == []
            return weakref.ref(service), weakref.ref(service.metrics), weakref.ref(service.pool)

        gc.collect()
        gc.disable()
        try:
            refs = run(scenario())
            assert [ref() is None for ref in refs] == [True, True, True]
        finally:
            gc.enable()


# -- persistent pool through the classic entry points -----------------------


class TestPersistentPoolPlumbing:
    def test_multiproc_er_reuses_pool_and_matches_oracle(self) -> None:
        problem = SearchProblem(RandomGameTree(3, 4, seed=7), depth=4)
        oracle = alphabeta(problem).value
        with EnginePool(2, tt_mode="shared") as pool:
            first = multiproc_er(problem, 2, pool=pool)
            second = multiproc_er(problem, 2, pool=pool)
            assert first.value == oracle
            assert second.value == oracle
            final = pool.close()
        assert final["tt_hits"] > 0, "second run should hit the warm table"

    def test_engine_config_pool_requires_multiproc_er(self) -> None:
        with EnginePool(1) as pool:
            with pytest.raises(SearchError, match="multiproc-er"):
                EngineConfig(algorithm="er", pool=pool)

    def test_game_engine_on_shared_pool(self) -> None:
        game = RandomGameTree(3, 4, seed=11)
        serial = GameEngine(
            game, EngineConfig(algorithm="alphabeta", max_depth=3)
        ).choose(game.root())
        with EnginePool(2, tt_mode="shared") as pool:
            pooled = GameEngine(
                game,
                EngineConfig(
                    algorithm="multiproc-er",
                    n_processors=2,
                    max_depth=3,
                    pool=pool,
                ),
            ).choose(game.root())
        assert pooled.move_index == serial.move_index
        assert pooled.per_move_values == serial.per_move_values

    def test_closed_pool_refuses_work(self) -> None:
        pool = EnginePool(1)
        pool.close()
        problem = SearchProblem(RandomGameTree(2, 2, seed=0), depth=2)
        with pytest.raises(ServeError, match="closed"):
            pool.submit_eval(problem)

    def test_pool_close_is_idempotent(self) -> None:
        pool = EnginePool(1, tt_mode="shared")
        first = pool.close()
        second = pool.close()
        assert first == second