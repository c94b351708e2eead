"""Cross-process keyed store over ``multiprocessing.shared_memory``.

The striped tables in :mod:`repro.cache.striped` share Python objects,
which processes cannot.  This variant packs entries into a fixed-slot
byte array that every worker process maps, with one
``multiprocessing.Lock`` per stripe for mutual exclusion.  Like the
striped store it serves both tables; its :class:`~repro.cache.striped.CacheKind`
names its counters and its live-ring spans.  Layout:

* ``capacity`` slots of 28 bytes: ``<QdiiB3x`` — key (u64), value (f64),
  depth (i32), best_move (i32, ``-1`` encodes ``None``), bound (u8,
  EXACT/LOWER/UPPER as 0/1/2), 3 pad bytes.
* key ``0`` marks an empty slot; the (astronomically unlikely) real key
  ``0`` is remapped to a fixed nonzero alias, costing at most one false
  transposition pairing between two positions that hash to those values.
* stripe ``s`` owns the contiguous slot range
  ``[s * slots_per_stripe, (s + 1) * slots_per_stripe)``; a key's home
  stripe is ``key % n_stripes`` and its bucket is a ``WAYS``-slot window
  at ``(key // n_stripes) % slots_per_stripe`` (wrapping within the
  stripe).

Replacement is depth-preferred, mirroring
:class:`~repro.search.transposition.TranspositionTable`: a store lands in
an empty slot, else overwrites its own key when at least as deep, else
overwrites the shallowest bucket resident when at least as deep as it —
otherwise the store is dropped and counted as a collision.  There is no
LRU component: fixed slots cannot cheaply track recency across
processes, and depth is the signal that matters for search caches.
Eval entries all have depth 0, so for them a store always lands.

Lifecycle: the coordinator constructs the table (creating the segment),
ships ``handle()`` plus the stripe locks to workers through the pool
initializer, and calls :meth:`unlink` in a ``finally``; workers
:meth:`attach` and :meth:`close` on exit.  Counters are process-local —
the coordinator aggregates workers' counts from their task results, not
from this object.
"""

from __future__ import annotations

import multiprocessing
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Optional, Sequence

from ..errors import SearchError
from ..obs import probe as _probe
from ..search.transposition import Bound, TTEntry
from .striped import TT, CacheKind

#: One packed slot: key, value, depth, best_move, bound, padding.
_RECORD = struct.Struct("<QdiiB3x")
#: A slot's leading key alone.
_KEY = struct.Struct("<Q")

#: Bucket associativity: how many slots a key may occupy within its stripe.
WAYS = 4

_MASK64 = (1 << 64) - 1
#: Stand-in for a real key of 0 (0 is the empty-slot sentinel).
_ZERO_KEY_ALIAS = 0x9E3779B97F4A7C15

_BOUND_TO_CODE = {Bound.EXACT: 0, Bound.LOWER: 1, Bound.UPPER: 2}
_CODE_TO_BOUND = (Bound.EXACT, Bound.LOWER, Bound.UPPER)


@dataclass(frozen=True)
class TTHandle:
    """Picklable description of a shared table (locks travel separately —
    ``multiprocessing`` primitives may only cross via process inheritance,
    e.g. pool-initializer args)."""

    shm_name: str
    capacity: int
    n_stripes: int
    kind: CacheKind


class SharedMemoryTT:
    """Fixed-slot keyed store in a shared-memory segment.

    Args:
        capacity: total slot count (rounded down to a multiple of
            ``n_stripes``).
        n_stripes: independent lock domains; also the key partition.
        locks: per-stripe locks — omit to create them (coordinator side),
            pass the inherited ones when attaching (worker side).
        kind: which table this is (:data:`~repro.cache.striped.TT` or
            :data:`~repro.cache.striped.EVAL`); the handle carries it to
            attaching workers.
    """

    def __init__(
        self,
        capacity: int = 1 << 14,
        n_stripes: int = 8,
        *,
        locks: Optional[Sequence[Any]] = None,
        kind: CacheKind = TT,
        _shm: Optional[shared_memory.SharedMemory] = None,
    ):
        if n_stripes < 1:
            raise SearchError("need at least one stripe")
        if capacity < n_stripes:
            raise SearchError("need at least one slot per stripe")
        self.n_stripes = n_stripes
        self.kind = kind
        self.slots_per_stripe = capacity // n_stripes
        self.capacity = self.slots_per_stripe * n_stripes
        if locks is not None and len(locks) != n_stripes:
            raise SearchError("need exactly one lock per stripe")
        self._locks: Sequence[Any] = (
            locks if locks is not None else [multiprocessing.Lock() for _ in range(n_stripes)]
        )
        if _shm is None:
            self._shm = shared_memory.SharedMemory(
                create=True, size=self.capacity * _RECORD.size
            )
            # Linux zero-fills fresh segments, but the empty-slot sentinel
            # is load-bearing enough to not depend on platform behavior.
            self._shm.buf[: self.capacity * _RECORD.size] = bytes(self.capacity * _RECORD.size)
            self._owner = True
        else:
            self._shm = _shm
            self._owner = False
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Stores dropped because every bucket resident was deeper.
        self.collisions = 0

    # -- lifecycle ---------------------------------------------------------

    def handle(self) -> TTHandle:
        return TTHandle(self._shm.name, self.capacity, self.n_stripes, self.kind)

    @property
    def locks(self) -> Sequence[Any]:
        """The stripe locks, for shipping through a pool initializer."""
        return self._locks

    @classmethod
    def attach(cls, handle: TTHandle, locks: Sequence[Any]) -> "SharedMemoryTT":
        """Map an existing segment (worker side).

        Pool workers inherit the coordinator's resource-tracker process,
        whose registration cache is an idempotent name set — re-attaching
        here is a no-op there, and the coordinator's :meth:`unlink` is
        the single deregistration.  (The classic "unregister on attach"
        recipe is for *unrelated* processes with their own tracker; with
        a shared tracker it would strip the coordinator's registration
        and make the final unlink complain.)
        """
        shm = shared_memory.SharedMemory(name=handle.shm_name)
        return cls(handle.capacity, handle.n_stripes, locks=locks, kind=handle.kind, _shm=shm)

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only, after every worker closed)."""
        if self._owner:
            self._shm.unlink()

    # -- addressing --------------------------------------------------------

    @staticmethod
    def _norm(key: int) -> int:
        key &= _MASK64
        return key if key != 0 else _ZERO_KEY_ALIAS

    def _bucket_offsets(self, key: int) -> list[int]:
        stripe = key % self.n_stripes
        home = (key // self.n_stripes) % self.slots_per_stripe
        base = stripe * self.slots_per_stripe
        ways = min(WAYS, self.slots_per_stripe)
        return [
            (base + (home + j) % self.slots_per_stripe) * _RECORD.size for j in range(ways)
        ]

    def _read(self, offset: int) -> tuple[int, float, int, int, int]:
        key, value, depth, move, bound = _RECORD.unpack_from(self._shm.buf, offset)
        return int(key), float(value), int(depth), int(move), int(bound)

    def _write(self, offset: int, key: int, entry: TTEntry) -> None:
        move = -1 if entry.best_move is None else entry.best_move
        _RECORD.pack_into(
            self._shm.buf,
            offset,
            key,
            entry.value,
            entry.depth,
            move,
            _BOUND_TO_CODE[entry.bound],
        )

    # -- table protocol ----------------------------------------------------

    def probe(self, key: int) -> Optional[TTEntry]:
        # Span recording is two ring calls around the locked section;
        # with no probe attached it is one module-global load.
        p = _probe.CURRENT
        ring = p.ring if p is not None else None
        token = ring.begin() if ring is not None else -1.0
        entry = self._probe_impl(key)
        if ring is not None:
            ring.end(self.kind.name, "probe", token)
        return entry

    def _probe_impl(self, key: int) -> Optional[TTEntry]:
        key = self._norm(key)
        stripe = key % self.n_stripes
        buf = self._shm.buf
        with self._locks[stripe]:
            for offset in self._bucket_offsets(key):
                # Only a way holding this key is unpacked whole.
                if _KEY.unpack_from(buf, offset)[0] == key:
                    _key, value, depth, move, bound = _RECORD.unpack_from(buf, offset)
                    self.hits += 1
                    return TTEntry(
                        value, depth, _CODE_TO_BOUND[bound], None if move < 0 else move
                    )
        self.misses += 1
        return None

    def store(self, key: int, entry: TTEntry) -> None:
        p = _probe.CURRENT
        ring = p.ring if p is not None else None
        token = ring.begin() if ring is not None else -1.0
        self._store_impl(key, entry)
        if ring is not None:
            ring.end(self.kind.name, "store", token)

    def _store_impl(self, key: int, entry: TTEntry) -> None:
        key = self._norm(key)
        stripe = key % self.n_stripes
        with self._locks[stripe]:
            empty_offset: Optional[int] = None
            victim_offset: Optional[int] = None
            victim_depth = 0
            for offset in self._bucket_offsets(key):
                slot_key, _value, depth, _move, _bound = self._read(offset)
                if slot_key == key:
                    if entry.depth >= depth:
                        self._write(offset, key, entry)
                        self.stores += 1
                    return  # keep the deeper resident
                if slot_key == 0:
                    if empty_offset is None:
                        empty_offset = offset
                elif victim_offset is None or depth < victim_depth:
                    victim_offset = offset
                    victim_depth = depth
            if empty_offset is not None:
                self._write(empty_offset, key, entry)
                self.stores += 1
            elif victim_offset is not None and entry.depth >= victim_depth:
                self._write(victim_offset, key, entry)
                self.stores += 1
                self.evictions += 1
            else:
                self.collisions += 1

    def __len__(self) -> int:
        """Occupied slots (full scan; for tests and reports, not hot paths)."""
        occupied = 0
        for slot in range(self.capacity):
            (slot_key,) = _KEY.unpack_from(self._shm.buf, slot * _RECORD.size)
            if slot_key != 0:
                occupied += 1
        return occupied

    def clear(self) -> None:
        for stripe in range(self.n_stripes):
            base = stripe * self.slots_per_stripe * _RECORD.size
            span = self.slots_per_stripe * _RECORD.size
            with self._locks[stripe]:
                self._shm.buf[base : base + span] = bytes(span)

    def counter_snapshot(self) -> dict[str, int]:
        return self.kind.counters(
            self.hits, self.misses, self.stores, self.evictions, collisions=self.collisions
        )
