"""Stress test for the striped keyed store under real threads, per kind.

Many threads hammer one :class:`~repro.cache.SimStripedTT` — a
transposition table or an eval cache — with mixed probes and stores over
a deliberately overlapping key range, all under the race detector's
trace recorder.  Per-stripe locking shows up in the trace as
ACQUIRE/WRITE/RELEASE triples named by stripe (``tt-stripe-{i}``,
``eval-stripe-{i}``); the offline analysis must find them consistently
locked (no data races, no lock order edges — stripes are leaves and
never nest).  Counter totals are cross-checked against the exact number
of operations issued, which a torn read-modify-write on the shared
tallies would break.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

import pytest

from repro.cache import EVAL, TT, CacheKind, SimStripedTT, static_entry
from repro.search.transposition import Bound, TTEntry
from repro.verify import trace as _trace
from repro.verify.racedetect import analyze

N_THREADS = 8
OPS_PER_THREAD = 2000
KEY_SPACE = 512  # far smaller than ops: every key is contended


def _search_entry(seed: int, rng: random.Random) -> TTEntry:
    return TTEntry(float(seed), rng.randrange(1, 8), Bound.EXACT, None)


def _static_entry(seed: int, rng: random.Random) -> TTEntry:
    return static_entry(float(seed))


#: What each kind's threads store: search results of varying depth, or
#: depth-0 static values.
ENTRY_FOR: dict[CacheKind, Callable[[int, random.Random], TTEntry]] = {
    TT: _search_entry,
    EVAL: _static_entry,
}


def _hammer(
    table: SimStripedTT, seed: int, barrier: threading.Barrier, issued: list[list[int]]
) -> None:
    rng = random.Random(seed)
    make_entry = ENTRY_FOR[table.kind]
    probes = stores = 0
    barrier.wait()  # maximal overlap: everyone starts at once
    for _ in range(OPS_PER_THREAD):
        key = rng.randrange(KEY_SPACE)
        if rng.random() < 0.5:
            table.probe(key)
            probes += 1
        else:
            table.store(key, make_entry(seed, rng))
            stores += 1
    issued[seed] = [probes, stores]


def _run_threads(table: SimStripedTT) -> list[list[int]]:
    barrier = threading.Barrier(N_THREADS)
    issued: list[list[int]] = [[0, 0] for _ in range(N_THREADS)]
    threads = [
        threading.Thread(target=_hammer, args=(table, seed, barrier, issued))
        for seed in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return issued


@pytest.mark.slow
@pytest.mark.parametrize("kind", [TT, EVAL], ids=lambda kind: kind.name)
class TestStripedStress:
    def test_eight_threads_trace_is_clean(self, kind: CacheKind) -> None:
        table = SimStripedTT(capacity=KEY_SPACE // 2, n_stripes=8, kind=kind)
        with _trace.tracing() as recorder:
            issued = _run_threads(table)

        report = analyze(recorder.events)
        assert report.ok, report.summary()
        assert report.tasks == N_THREADS
        # Every table operation is one locked critical section, named
        # after its kind's stripes.
        acquires = [ev for ev in recorder.events if ev.kind == _trace.ACQUIRE]
        assert len(acquires) == N_THREADS * OPS_PER_THREAD
        assert {ev.obj for ev in acquires} == {f"{kind.name}-stripe-{i}" for i in range(8)}

        # Counter conservation: a torn increment on the per-stripe hit
        # and miss tallies would make their sum fall short of the probes
        # issued.
        probes_issued = sum(counts[0] for counts in issued)
        stores_issued = sum(counts[1] for counts in issued)
        assert probes_issued + stores_issued == N_THREADS * OPS_PER_THREAD
        assert table.hits + table.misses == probes_issued
        if kind is TT:
            # Not conserved: depth-preferred replacement silently drops
            # a store shallower than the incumbent.
            assert 0 < table.stores <= stores_issued
        else:
            # Every static value lands (all depth 0), so stores are
            # conserved too.
            assert table.stores == stores_issued
        assert table.hits > 0 and table.misses > 0
        assert len(table) <= table.capacity

    def test_contended_table_holds_only_stored_values(self, kind: CacheKind) -> None:
        """Every probe-able entry after the hammer is one some thread
        actually stored — a torn write or cross-stripe aliasing would
        surface as a foreign value or depth."""
        table = SimStripedTT(capacity=KEY_SPACE, n_stripes=4, kind=kind)
        _run_threads(table)
        stored_values = {float(seed) for seed in range(N_THREADS)}
        depths = range(1, 8) if kind is TT else range(0, 1)
        for key in range(KEY_SPACE):
            entry = table.probe(key)
            if entry is not None:
                assert entry.value in stored_values
                assert entry.depth in depths
