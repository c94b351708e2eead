"""Each service request is resolved once, at admission.

:meth:`SearchService._resolve` replays the request's path, generates the
root children and computes their table keys; the scheduler's ticket
carries that :class:`~repro.serve.pool.ResolvedPosition` into every
deepening iteration.  These tests pin the "once": path replays and
Othello rehashes are counted per request, one request object may be
in flight twice, invalid requests still never reach admission, and a
warm request leaves (almost) nothing behind in the service's metrics,
and a repeated request is answered from the table alone, before its
deepening loop, while a table that answers only part of it changes
nothing.  Also here: the loopback rule for ``op: shutdown``.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc

import pytest

import repro.serve.server as server_module
from repro.engine import EngineConfig, GameEngine
from repro.games.base import follow_path, hash_key
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    SearchRequest,
    SearchService,
    ServeConfig,
)
from repro.search.transposition import Bound, TTEntry
from repro.serve.api import SearchReply, decode_line, encode_line
from repro.serve.pool import PoolEngine
from repro.serve.server import is_loopback_peer

#: An Othello position with several moves, two plies from O1's root.
WORKLOAD = "O1"
PATH = (0, 1)


def small_config(**overrides) -> ServeConfig:
    defaults = dict(n_workers=1, max_concurrency=2, queue_limit=8)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def oracle(service: SearchService, path: tuple[int, ...], depth: int):
    game = service.catalog[WORKLOAD].make_game()
    config = EngineConfig(
        algorithm="alphabeta",
        max_depth=depth,
        sort_below_root=service.catalog[WORKLOAD].sort_below_root,
    )
    return GameEngine(game, config).choose(follow_path(game, list(path)))


class TestResolveOnce:
    def test_one_path_replay_and_one_rehash_per_root_child(self, monkeypatch) -> None:
        game_class = type(server_module.suite_catalog()[WORKLOAD].make_game())
        original_hash = game_class.hash_key
        replays: list[tuple[int, ...]] = []
        hashed: list[object] = []

        def counting_follow_path(game, path):
            replays.append(tuple(path))
            return follow_path(game, path)

        def counting_hash(position):
            hashed.append(position)
            return original_hash(position)

        monkeypatch.setattr(server_module, "follow_path", counting_follow_path)

        async def scenario():
            async with SearchService(small_config()) as service:
                # Patched after the pool forks: only this process counts.
                monkeypatch.setattr(game_class, "hash_key", staticmethod(counting_hash))
                reply = await service.handle(
                    SearchRequest(request_id="once", workload=WORKLOAD, path=PATH, max_depth=3)
                )
                monkeypatch.setattr(game_class, "hash_key", original_hash)
                return service, reply

        service, reply = asyncio.run(scenario())
        assert reply.status == STATUS_OK and reply.depth_reached == 3
        assert replays == [PATH]
        game = service.catalog[WORKLOAD].make_game()
        children = game.children(follow_path(game, list(PATH)))
        assert len(hashed) == len(children) > 1
        assert reply.per_move_values == oracle(service, PATH, 3).per_move_values

    def test_one_request_object_in_flight_twice(self) -> None:
        request = SearchRequest(request_id="twice", workload=WORKLOAD, path=PATH, max_depth=3)

        async def scenario():
            async with SearchService(small_config()) as service:
                replies = await asyncio.gather(service.handle(request), service.handle(request))
                return service, replies

        service, replies = asyncio.run(scenario())
        expected = oracle(service, PATH, 3)
        for reply in replies:
            assert reply.status == STATUS_OK
            assert reply.request_id == "twice"
            assert reply.move_index == expected.move_index
            assert reply.per_move_values == expected.per_move_values

    def test_keys_are_the_childrens_table_keys(self) -> None:
        # Resolution needs the catalog only, not a started pool.
        resolved = SearchService(small_config())._resolve(
            SearchRequest(request_id="k", workload=WORKLOAD, path=PATH)
        )
        assert len(resolved.keys) == len(resolved.children) > 1
        assert resolved.keys == tuple(
            hash_key(resolved.game, child) for child in resolved.children
        )

    def test_invalid_path_and_over_limit_depth_rejected_pre_admission(self) -> None:
        async def scenario():
            async with SearchService(small_config(max_depth_limit=3)) as service:
                bad_path = await service.handle(
                    SearchRequest(request_id="p", workload=WORKLOAD, path=(0, 99))
                )
                too_deep = await service.handle(
                    SearchRequest(request_id="d", workload=WORKLOAD, max_depth=4)
                )
                assert service.scheduler is not None
                return bad_path, too_deep, dict(service.scheduler.counters)

        bad_path, too_deep, counters = asyncio.run(scenario())
        assert bad_path.status == STATUS_ERROR and "leaves the tree" in bad_path.detail
        assert too_deep.status == STATUS_ERROR and "exceeds the service limit" in too_deep.detail
        assert counters["submitted"] == 0


class TestRepeatedRequest:
    """A repeated request is answered from the warm table.

    The first request stores every root child's EXACT value at depth
    ``max_depth - 1``, so the second identical one is answered before
    its deepening loop: one probe per child, one iteration span, and no
    task submitted.
    """

    @pytest.mark.parametrize(
        "workload, path, n_children",
        [("O1", (0, 1), 13), ("R1", (1,), 4), ("R3", (), 8)],
    )
    def test_second_identical_request_submits_no_task(
        self, workload, path, n_children
    ) -> None:
        max_depth = 3

        def request(request_id: str) -> SearchRequest:
            return SearchRequest(
                request_id=request_id, workload=workload, path=path, max_depth=max_depth
            )

        async def scenario():
            async with SearchService(small_config()) as service:
                assert service.pool is not None
                first = await service.handle(request("first"))
                before = dict(service.pool.counters)
                second = await service.handle(request("second"))
                after = dict(service.pool.counters)
                return first, second, before, after

        first, second, before, after = asyncio.run(scenario())
        assert first.status == second.status == STATUS_OK
        assert second.depth_reached == max_depth
        assert second.move_index == first.move_index
        assert second.per_move_values == first.per_move_values
        assert len(second.per_move_values) == n_children
        assert after["tasks_submitted"] == before["tasks_submitted"]
        assert after["tt_short_circuits"] - before["tt_short_circuits"] == n_children
        assert after["table_answers"] - before["table_answers"] == 1
        assert second.timing is not None and len(second.timing.iterations_s) == 1


def child_values(reply) -> list[float]:
    """Each root child's own value: the reply's per-move values, negated back."""
    return [-value for value in reply.per_move_values]


class TestTableAnswer:
    """What the table answer may and may not do."""

    MAX_DEPTH = 3

    def request(self, request_id: str, max_depth: int = MAX_DEPTH, **fields) -> SearchRequest:
        return SearchRequest(
            request_id=request_id, workload=WORKLOAD, path=PATH, max_depth=max_depth, **fields
        )

    def cold_reply(self) -> SearchReply:
        async def scenario():
            async with SearchService(small_config()) as service:
                return await service.handle(self.request("cold"))

        return asyncio.run(scenario())

    @pytest.mark.parametrize("warm_up", ["all-but-last-child", "all-shallower"])
    def test_partial_table_runs_the_full_loop(self, warm_up: str) -> None:
        cold = self.cold_reply()
        n_children = len(cold.per_move_values)

        async def scenario():
            async with SearchService(small_config()) as service:
                pool = service.pool
                assert pool is not None and pool.shared_tt is not None
                resolved = service._resolve(self.request("warm"))
                if warm_up == "all-but-last-child":
                    # Every child's exact value at D-1, but the last one's.
                    depth = self.MAX_DEPTH - 1
                    for key, value in zip(resolved.keys[:-1], child_values(cold)[:-1]):
                        pool.shared_tt.store(key, TTEntry(value, depth, Bound.EXACT, None))
                else:
                    await service.handle(self.request("shallow", max_depth=self.MAX_DEPTH - 1))
                before = dict(pool.counters)
                attempt = PoolEngine(pool).answer_from_table(
                    self.request("attempt"), self.MAX_DEPTH, resolved
                )
                assert dict(pool.counters) == before
                reply = await service.handle(self.request("warm"))
                return attempt, reply, before, dict(pool.counters)

        attempt, warm, before, after = asyncio.run(scenario())
        assert attempt is None
        assert warm.status == STATUS_OK and warm.timing is not None
        assert len(warm.timing.iterations_s) == self.MAX_DEPTH
        for field in ("move_index", "value", "depth_reached", "per_move_values", "anytime"):
            assert getattr(warm, field) == getattr(cold, field), field
        assert after["table_answers"] == before["table_answers"]
        # Only the loop's hits count: every stored child in all D
        # iterations, or every child in the D-1 iterations the shallower
        # request already searched.
        expected = (
            (n_children - 1) * self.MAX_DEPTH
            if warm_up == "all-but-last-child"
            else n_children * (self.MAX_DEPTH - 1)
        )
        assert after["tt_short_circuits"] - before["tt_short_circuits"] == expected

    def test_table_answer_under_an_expired_deadline_is_not_anytime(self) -> None:
        async def scenario():
            async with SearchService(small_config()) as service:
                assert service.pool is not None
                await service.handle(self.request("first"))
                before = service.pool.counters["table_answers"]
                reply = await service.handle(self.request("late", deadline_s=0.0))
                return reply, service.pool.counters["table_answers"] - before

        reply, answered = asyncio.run(scenario())
        assert answered == 1
        assert reply.status == STATUS_OK
        assert reply.anytime is False and reply.depth_reached == self.MAX_DEPTH
        assert reply.timing is not None
        assert reply.timing.conservation_problems() == []
        assert len(reply.timing.iterations_s) == 1


class TestWarmRequestRetention:
    #: Bytes a warm request may leave behind once every bounded store is full.
    BUDGET_B = 64
    WARM_REQUESTS = 1000

    def test_warm_requests_retain_under_budget(self) -> None:
        """After the span ring and trace store fill, the only per-request
        growth is the queue-depth series: two float columns, not tuples."""
        config = small_config(max_concurrency=1, span_capacity=32, trace_capacity=8)

        async def warm(service: SearchService, count: int, tag: str) -> None:
            for i in range(count):
                reply = await service.handle(
                    SearchRequest(
                        request_id=f"{tag}{i}", workload=WORKLOAD, path=PATH, max_depth=2
                    )
                )
                assert reply.status == STATUS_OK

        async def scenario() -> float:
            async with SearchService(config) as service:
                # Traced from before the fill, so that a store reallocated
                # later is not counted whole against the warm requests.
                tracemalloc.start()
                try:
                    await warm(service, 100, "fill")
                    assert len(service.traces) == config.trace_capacity
                    assert service.ring.dropped > 0
                    gc.collect()
                    before = tracemalloc.get_traced_memory()[0]
                    await warm(service, self.WARM_REQUESTS, "warm")
                    gc.collect()
                    after = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                return (after - before) / self.WARM_REQUESTS

        per_request = asyncio.run(scenario())
        assert per_request < self.BUDGET_B, f"{per_request:.1f} B retained per warm request"


class TestShutdownPeer:
    @pytest.mark.parametrize(
        "peername",
        [("127.0.0.1", 4000), ("127.8.9.10", 1), ("::1", 4000, 0, 0), ("::ffff:127.0.0.1", 1, 0, 0)],
    )
    def test_loopback_peers_may_stop_the_service(self, peername) -> None:
        assert is_loopback_peer(peername)

    @pytest.mark.parametrize(
        "peername",
        [
            ("10.0.0.7", 4000),
            ("192.168.1.2", 1),
            ("2001:db8::1", 4000, 0, 0),
            ("::ffff:10.0.0.7", 1, 0, 0),
            ("localhost", 1),
            "",
            None,
            (),
        ],
    )
    def test_other_peers_may_not(self, peername) -> None:
        assert not is_loopback_peer(peername)

    def test_refused_shutdown_gets_one_error_and_the_connection_lives(
        self, monkeypatch
    ) -> None:
        monkeypatch.setattr(server_module, "is_loopback_peer", lambda peername: False)

        async def scenario():
            async with SearchService(small_config()) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_line({"op": "shutdown"}))
                writer.write(encode_line({"op": "stats"}))
                await writer.drain()
                lines = [
                    await asyncio.wait_for(reader.readline(), timeout=30) for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                still_serving = service.address
            return [decode_line(line) for line in lines], still_serving

        (refusal, stats), still_serving = asyncio.run(scenario())
        assert refusal["status"] == STATUS_ERROR
        assert "loopback" in str(refusal["detail"])
        assert stats["op"] == "stats"
        assert still_serving
