"""Unit tests for :mod:`repro.cache` — the striped, private, and
shared-memory keyed stores, their op generators, and the keying seam.

Every store serves both tables, so the striped and private checks run
once per kind (:data:`KINDS`) against names and costs spelled out in
:data:`EXPECTED`, not derived from the kind record under test."""

import pytest

from repro.cache import (
    CACHE_MODES,
    EVAL,
    TT,
    SharedMemoryTT,
    SimStripedTT,
    WorkerLocalTT,
    make_eval_cache,
    make_tt,
    static_entry,
)
from repro.cache.sharedmem import WAYS
from repro.costmodel import CostModel
from repro.errors import SearchError
from repro.games.base import hash_key
from repro.games.random_tree import RandomGameTree
from repro.obs import live, probe
from repro.search.transposition import Bound, TTEntry
from repro.sim.ops import Acquire, Compute, Release

KINDS = (TT, EVAL)

#: Distinct per-field costs, so a charge read from the wrong field shows.
COSTS = CostModel(tt_probe=1.25, tt_store=2.5, eval_cache_probe=3.75, eval_cache_store=5.0)

#: Per kind: (name stem, probe cost field, probe units, store cost field, store units).
EXPECTED = {
    TT: ("tt", "tt_probe", 1.25, "tt_store", 2.5),
    EVAL: ("eval", "eval_cache_probe", 3.75, "eval_cache_store", 5.0),
}


def entry(value: float = 1.0, depth: int = 3, bound: Bound = Bound.EXACT) -> TTEntry:
    return TTEntry(value, depth, bound, None)


def drain(gen):
    """Run an op generator to completion, returning (ops, result)."""
    ops = []
    try:
        while True:
            ops.append(next(gen))
    except StopIteration as stop:
        return ops, stop.value


def computes(ops) -> list[tuple[str, float]]:
    return [(op.tag, op.units) for op in ops if isinstance(op, Compute)]


class TestStripedTT:
    def test_stripe_routing_partitions_keys(self):
        table = SimStripedTT(capacity=64, n_stripes=8)
        for key in range(100):
            assert table.stripe_of(key) == key % 8

    def test_probe_store_roundtrip(self):
        for kind in KINDS:
            table = SimStripedTT(capacity=64, kind=kind)
            table.store(42, entry(value=7.0))
            got = table.probe(42)
            assert got is not None and got.value == 7.0
            assert table.probe(43) is None
            assert table.hits == 1 and table.misses == 1 and table.stores == 1

    def test_counter_snapshot_shape(self):
        for kind in KINDS:
            stem = EXPECTED[kind][0]
            snapshot = SimStripedTT(capacity=16, kind=kind).counter_snapshot()
            assert list(snapshot) == [
                f"{stem}_hits", f"{stem}_misses", f"{stem}_stores",
                f"{stem}_evictions", f"{stem}_contended",
            ]

    def test_rejects_bad_geometry(self):
        with pytest.raises(SearchError):
            SimStripedTT(capacity=16, n_stripes=0)
        with pytest.raises(SearchError):
            SimStripedTT(capacity=0)

    def test_clear_and_len(self):
        for kind in KINDS:
            table = SimStripedTT(capacity=64, kind=kind)
            for key in range(10):
                table.store(key, entry())
            assert len(table) == 10
            table.clear()
            assert len(table) == 0

    def test_static_values_are_plain_lru(self):
        """Depth-0 eval entries: a re-store overwrites, and a full stripe
        evicts its least recently used entry."""
        table = SimStripedTT(capacity=2, n_stripes=1, kind=EVAL)
        table.store(1, static_entry(1.0))
        table.store(1, static_entry(1.5))
        table.store(2, static_entry(2.0))
        table.probe(1)  # 2 is now least recent
        table.store(3, static_entry(3.0))
        assert table.probe(2) is None
        assert table.probe(1) == static_entry(1.5)
        assert table.probe(3) == TTEntry(3.0, 0, Bound.EXACT, None)


class TestSimStripedTT:
    def test_probe_op_charges_and_locks(self):
        for kind in KINDS:
            stem, probe_field, probe_units, _, _ = EXPECTED[kind]
            table = SimStripedTT(capacity=64, cost_model=COSTS, kind=kind)
            table.store(5, entry(value=2.5))
            ops, result = drain(table.probe_op(5))
            assert result is not None and result.value == 2.5
            assert [type(op) for op in ops] == [Acquire, Compute, Release]
            assert computes(ops) == [(probe_field, probe_units)]
            assert ops[0].lock.name == f"{stem}-stripe-{table.stripe_of(5)}"

    def test_store_op_roundtrip(self):
        for kind in KINDS:
            stem, _, _, store_field, store_units = EXPECTED[kind]
            table = SimStripedTT(capacity=64, cost_model=COSTS, kind=kind)
            ops, _ = drain(table.store_op(9, entry(value=-1.0)))
            assert [type(op) for op in ops] == [Acquire, Compute, Release]
            assert computes(ops) == [(store_field, store_units)]
            assert ops[0].lock.name == f"{stem}-stripe-{table.stripe_of(9)}"
            got = table.probe(9)
            assert got is not None and got.value == -1.0

    def test_view_is_shared(self):
        for kind in KINDS:
            table = SimStripedTT(capacity=64, kind=kind)
            assert table.view(0) is table and table.view(3) is table


class TestWorkerLocalTT:
    def test_views_are_isolated(self):
        for kind in KINDS:
            table = WorkerLocalTT(capacity=64, kind=kind)
            table.view(0).store(7, entry(value=1.0))
            assert table.view(0).probe(7) is not None
            assert table.view(1).probe(7) is None

    def test_capacity_is_per_worker(self):
        for kind in KINDS:
            table = WorkerLocalTT(capacity=4, kind=kind)
            for pid in (0, 1):
                for key in range(4):
                    table.view(pid).store(key * 8 + pid, entry())
            assert len(table) == 8
            stem = EXPECTED[kind][0]
            assert table.counter_snapshot()[f"{stem}_stores"] == 8
            assert table.counter_snapshot()[f"{stem}_contended"] == 0

    def test_ops_charge_but_never_lock(self):
        for kind in KINDS:
            _, probe_field, probe_units, store_field, store_units = EXPECTED[kind]
            table = WorkerLocalTT(capacity=64, cost_model=COSTS, kind=kind)
            ops, _ = drain(table.view(0).store_op(3, entry()))
            assert [type(op) for op in ops] == [Compute]
            assert computes(ops) == [(store_field, store_units)]
            ops, result = drain(table.view(0).probe_op(3))
            assert [type(op) for op in ops] == [Compute]
            assert computes(ops) == [(probe_field, probe_units)]
            assert result is not None


class TestMakeTT:
    def test_modes(self):
        assert make_tt("off") is None and make_eval_cache("off") is None
        for make, kind in ((make_tt, TT), (make_eval_cache, EVAL)):
            private, shared = make("private"), make("shared")
            assert isinstance(private, WorkerLocalTT) and private.kind is kind
            assert isinstance(shared, SimStripedTT) and shared.kind is kind
        assert CACHE_MODES == ("off", "private", "shared")

    def test_unknown_mode_raises(self):
        with pytest.raises(SearchError, match="unknown tt mode 'on'"):
            make_tt("on")
        with pytest.raises(SearchError, match="unknown eval-cache mode 'on'"):
            make_eval_cache("on")


class TestSharedMemoryTT:
    def make(self, capacity=256, n_stripes=8) -> SharedMemoryTT:
        return SharedMemoryTT(capacity=capacity, n_stripes=n_stripes)

    def teardown_table(self, table: SharedMemoryTT) -> None:
        table.close()
        table.unlink()

    def test_pack_unpack_roundtrip(self):
        table = self.make()
        try:
            cases = [
                (1, TTEntry(3.25, 4, Bound.EXACT, None)),
                (2, TTEntry(-1e9, 0, Bound.LOWER, 5)),
                (3, TTEntry(0.0, 31, Bound.UPPER, 0)),
            ]
            for key, e in cases:
                table.store(key, e)
            for key, e in cases:
                got = table.probe(key)
                assert got == e
        finally:
            self.teardown_table(table)

    def test_zero_key_aliases(self):
        table = self.make()
        try:
            table.store(0, entry(value=9.0))
            got = table.probe(0)
            assert got is not None and got.value == 9.0
            assert len(table) == 1
        finally:
            self.teardown_table(table)

    def test_same_key_keeps_deeper(self):
        table = self.make()
        try:
            table.store(11, entry(value=1.0, depth=5))
            table.store(11, entry(value=2.0, depth=3))  # shallower: dropped
            got = table.probe(11)
            assert got is not None and got.depth == 5 and got.value == 1.0
            table.store(11, entry(value=3.0, depth=6))  # deeper: replaces
            got = table.probe(11)
            assert got is not None and got.value == 3.0
        finally:
            self.teardown_table(table)

    def test_bucket_eviction_prefers_shallow_victim(self):
        # One stripe with WAYS slots: the bucket window is the whole stripe.
        table = SharedMemoryTT(capacity=WAYS, n_stripes=1)
        try:
            for i in range(WAYS):
                table.store(i + 1, entry(value=float(i), depth=i + 2))
            # Bucket full; a deep store evicts the shallowest (depth 2).
            table.store(WAYS + 1, entry(value=50.0, depth=10))
            assert table.evictions == 1
            assert table.probe(1) is None
            # A too-shallow store is dropped and counted as a collision.
            table.store(WAYS + 2, entry(value=60.0, depth=1))
            assert table.collisions == 1
            assert table.probe(WAYS + 2) is None
        finally:
            self.teardown_table(table)

    def test_attach_sees_owner_writes(self):
        table = self.make()
        try:
            table.store(77, entry(value=4.5))
            attached = SharedMemoryTT.attach(table.handle(), table.locks)
            try:
                got = attached.probe(77)
                assert got is not None and got.value == 4.5
                attached.store(78, entry(value=5.5))
                got = table.probe(78)
                assert got is not None and got.value == 5.5
            finally:
                attached.close()
        finally:
            self.teardown_table(table)

    def test_counter_snapshot_includes_collisions(self):
        table = self.make()
        try:
            assert "tt_collisions" in table.counter_snapshot()
        finally:
            self.teardown_table(table)

    def test_eval_kind_spans_and_counters(self):
        """An eval-kind segment records its spans as ``eval``, reports
        ``eval_*`` counters, and hands its kind to attaching workers;
        depth-0 entries always land, evicting rather than colliding."""
        table = SharedMemoryTT(capacity=WAYS, n_stripes=1, kind=EVAL)
        ring = live.install_ring(live.TRACE_FULL)
        try:
            assert probe.CURRENT is not None and probe.CURRENT.ring is ring
            for key in range(1, WAYS + 2):
                table.store(key, static_entry(float(key)))
            assert table.probe(WAYS + 1) == static_entry(float(WAYS + 1))
            assert ring is not None
            assert {(cat, name) for cat, name, *_ in ring.drain()} == {
                ("eval", "store"), ("eval", "probe"),
            }
            assert table.counter_snapshot() == {
                "eval_hits": 1, "eval_misses": 0, "eval_stores": WAYS + 1,
                "eval_evictions": 1, "eval_collisions": 0,
            }
            attached = SharedMemoryTT.attach(table.handle(), table.locks)
            try:
                assert attached.kind is EVAL
                assert "eval_collisions" in attached.counter_snapshot()
            finally:
                attached.close()
        finally:
            live.uninstall_ring()
            self.teardown_table(table)

    def test_rejects_bad_geometry(self):
        with pytest.raises(SearchError):
            SharedMemoryTT(capacity=4, n_stripes=8)
        with pytest.raises(SearchError):
            SharedMemoryTT(capacity=16, n_stripes=0)


class TestHashKeySeam:
    def test_games_supply_their_own_keys(self):
        game = RandomGameTree(3, 4, seed=1)
        root = game.root()
        assert hash_key(game, root) == game.hash_key(root)

    def test_sibling_keys_differ(self):
        game = RandomGameTree(3, 4, seed=1)
        children = game.children(game.root())
        keys = {hash_key(game, child) for child in children}
        assert len(keys) == len(children)

    def test_rooted_game_forwards(self):
        from repro.games.base import RootedGame

        game = RandomGameTree(3, 4, seed=1)
        child = game.children(game.root())[0]
        rooted = RootedGame(game, child)
        assert hash_key(rooted, child) == hash_key(game, child)
