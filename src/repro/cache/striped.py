"""Lock-striped and per-worker keyed stores for the parallel backends.

The transposition table and the static-evaluation cache are one kind of
store: ``TTEntry`` records under 64-bit Zobrist keys
(:func:`repro.games.base.hash_key`), bounded by
:class:`~repro.search.transposition.TranspositionTable` stripes.  They
differ only in the names they report under — counter prefix, cost-model
fields, bus events, lock and trace names, span category — which a
:class:`CacheKind` record (:data:`TT` or :data:`EVAL`) carries.  A static
value is stored as a depth-0 EXACT entry (:func:`static_entry`); since
every eval entry has depth 0, depth-preferred replacement reduces to
plain LRU for them.

Two concurrency shapes live here (the third, for worker processes, is
:class:`~repro.cache.sharedmem.SharedMemoryTT`):

* :class:`SimStripedTT` — the key space split over ``n_stripes``
  independently locked tables, so probes and stores on different
  stripes never contend; ``stripe_of`` is a plain modulus, which is
  uniform because splitmix64-derived keys are.  Direct thread-safe
  ``probe``/``store`` serve the threaded backend's serial subtrees and
  the stress tests; the generator ops (``probe_op``/``store_op``) yield
  :class:`~repro.sim.ops.Acquire`/:class:`~repro.sim.ops.Compute`/
  :class:`~repro.sim.ops.Release` on per-stripe
  :class:`~repro.sim.locks.SimLock` objects, so the discrete-event engine
  charges the kind's cost fields and accounts stripe contention as
  interference loss, exactly like heap and tree locks.  The same ops run
  unchanged on the threaded driver, which maps the SimLocks to real
  locks.
* :class:`WorkerLocalTT` — the ``private`` baseline: one table per
  worker, ops charge compute cost but never contend.  The gap between
  private and shared on one workload is the measured value of sharing.

Locking discipline (load-bearing): the *real* mutual exclusion for every
code path is the internal per-stripe ``threading.Lock`` held around the
dict access.  The SimLocks exist only for simulated-time accounting —
the threaded driver maps each SimLock to its own real lock, which would
be a *different* object than anything guarding direct serial-path calls,
so relying on it for exclusion would race.  Op generators acquire the
SimLock (timing) and then the internal lock (safety); the internal locks
are leaves — no other lock is ever taken while one is held — so they
cannot introduce ordering cycles.  Cache ops must be issued with no heap
or tree lock held (the flow analyser's VER101 flags a delegation made
while holding one).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Generator, Iterable, Optional, Union

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..obs import events as _obs
from ..obs import probe as _probe
from ..search.transposition import Bound, TranspositionTable, TTEntry
from ..sim.locks import SimLock
from ..sim.ops import Acquire, Compute, Op, Release
from ..verify.trace import WRITE

#: Generator type of a store op: yields simulator ops, returns the probe
#: result (or ``None`` for stores).
TTProbeOp = Generator[Op, None, Optional[TTEntry]]
TTStoreOp = Generator[Op, None, None]

#: Accepted values of every ``--tt``/``--eval-cache`` flag and config field.
CACHE_MODES = ("off", "private", "shared")


@dataclass(frozen=True)
class CacheKind:
    """Which table a store is: the names its traffic reports under.

    ``name`` is the counter prefix (``tt_hits``), the live-ring span
    category, and the stem of the lock and trace names
    (``tt-stripe-0``, ``tt.stripe0``); ``flag`` names the mode in errors;
    the cost fields are :class:`~repro.costmodel.CostModel` attributes,
    also used as the ``Compute`` tags; the events are bus event names.
    """

    name: str
    flag: str
    probe_cost: str
    store_cost: str
    probe_event: str
    store_event: str
    contention_event: str

    def counters(
        self, hits: int, misses: int, stores: int, evictions: int, **extra: int
    ) -> dict[str, int]:
        """Counters in the shape the drivers' ``extras`` dicts carry."""
        counts = dict(hits=hits, misses=misses, stores=stores, evictions=evictions, **extra)
        return {f"{self.name}_{field}": count for field, count in counts.items()}


#: The transposition table: search results (value, depth, bound, move).
TT = CacheKind(
    "tt", "tt", "tt_probe", "tt_store",
    _obs.EV_TT_PROBE, _obs.EV_TT_STORE, _obs.EV_TT_CONTENTION,
)
#: The static-evaluation cache: depth-0 EXACT entries (:func:`static_entry`).
EVAL = CacheKind(
    "eval", "eval-cache", "eval_cache_probe", "eval_cache_store",
    _obs.EV_EVAL_PROBE, _obs.EV_EVAL_STORE, _obs.EV_EVAL_CONTENTION,
)


def static_entry(value: float) -> TTEntry:
    """A static value as stored in an eval-kind table: depth 0, EXACT, no move."""
    return TTEntry(value, 0, Bound.EXACT, None)


def check_cache_mode(kind: CacheKind, mode: str) -> None:
    """Raise :class:`SearchError` unless ``mode`` is one of :data:`CACHE_MODES`."""
    if mode not in CACHE_MODES:
        raise SearchError(f"unknown {kind.flag} mode {mode!r}; expected one of {CACHE_MODES}")


class _Summed:
    """Counters and size summed over a store's :class:`TranspositionTable`
    parts; reads are lock-free and therefore approximate while writers
    are active, exact once quiescent."""

    kind: CacheKind
    #: Times an op generator found its stripe's SimLock already held.
    contended: int

    def _parts(self) -> Iterable[TranspositionTable]:
        raise NotImplementedError

    def __len__(self) -> int:
        return sum(len(table) for table in self._parts())

    @property
    def hits(self) -> int:
        return sum(table.hits for table in self._parts())

    @property
    def misses(self) -> int:
        return sum(table.misses for table in self._parts())

    @property
    def stores(self) -> int:
        return sum(table.stores for table in self._parts())

    @property
    def evictions(self) -> int:
        return sum(table.evictions for table in self._parts())

    def counter_snapshot(self) -> dict[str, int]:
        return self.kind.counters(
            self.hits, self.misses, self.stores, self.evictions, contended=self.contended
        )


class SimStripedTT(_Summed):
    """Concurrent keyed store: N independently locked stripes.

    Args:
        capacity: total entry budget, split evenly across stripes (each
            stripe holds at least one entry).
        n_stripes: number of independent partitions; more stripes means
            less contention and proportionally smaller per-stripe LRU
            windows.
        kind: which table this is (:data:`TT` or :data:`EVAL`).

    Each stripe is a full :class:`TranspositionTable`, so depth-preferred
    replacement and bound semantics are inherited, not reimplemented.

    ``probe_op``/``store_op`` are worker-generator fragments: call them
    with ``yield from`` and no locks held.  Each contends for the
    stripe's :class:`SimLock` (interference accounting), charges the
    kind's cost field, performs the dict work under the internal real
    lock, and emits one telemetry event.  Direct ``probe``/``store``
    calls (the serial-subtree path) stay silent on the bus — at
    thousands per node they would drown it — but still land in the
    table counters.
    """

    def __init__(
        self,
        capacity: int = 1 << 16,
        n_stripes: int = 8,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        kind: CacheKind = TT,
    ):
        if n_stripes < 1:
            raise SearchError("need at least one stripe")
        if capacity < 1:
            raise SearchError("table capacity must be positive")
        self.n_stripes = n_stripes
        self.capacity = capacity
        self.cost_model = cost_model
        self.kind = kind
        per_stripe = max(1, capacity // n_stripes)
        self._tables = tuple(TranspositionTable(capacity=per_stripe) for _ in range(n_stripes))
        self._real_locks = tuple(threading.Lock() for _ in range(n_stripes))
        self._sim_locks = tuple(SimLock(f"{kind.name}-stripe-{i}") for i in range(n_stripes))
        self.contended = 0

    def _parts(self) -> Iterable[TranspositionTable]:
        return self._tables

    def stripe_of(self, key: int) -> int:
        return key % self.n_stripes

    def view(self, pid: int) -> "SimStripedTT":
        """The per-worker handle — every worker shares this one table."""
        return self

    def probe(self, key: int) -> Optional[TTEntry]:
        index = self.stripe_of(key)
        with self._real_locks[index]:
            p = _probe.CURRENT
            if p is not None:
                # Mirror the threaded driver's discipline: the section's
                # ACQUIRE, WRITE (probe refreshes LRU order) and RELEASE
                # are reported under the real lock, so the race detector
                # sees a properly locked mutation.
                name = self.kind.name
                p.locked_access(f"{name}-stripe-{index}", f"{name}.stripe{index}", WRITE)
            entry = self._tables[index].probe(key)
        return entry

    def store(self, key: int, entry: TTEntry) -> None:
        index = self.stripe_of(key)
        with self._real_locks[index]:
            p = _probe.CURRENT
            if p is not None:
                name = self.kind.name
                p.locked_access(f"{name}-stripe-{index}", f"{name}.stripe{index}", WRITE)
            self._tables[index].store(key, entry)

    def clear(self) -> None:
        for index, table in enumerate(self._tables):
            with self._real_locks[index]:
                table.clear()

    def _note_contention(self, index: int, op: str) -> None:
        # Meaningful on the simulator, where ``holder`` tracks ownership
        # in simulated time; the threaded driver never sets it, so real
        # threads report contention through lock-wait timings instead.
        if self._sim_locks[index].holder is not None:
            self.contended += 1
            p = _probe.CURRENT
            if p is not None:
                p.emit(self.kind.contention_event, stripe=index, op=op)

    def probe_op(self, key: int) -> TTProbeOp:
        index = self.stripe_of(key)
        lock = self._sim_locks[index]
        kind = self.kind
        self._note_contention(index, "probe")
        yield Acquire(lock)
        yield Compute(getattr(self.cost_model, kind.probe_cost), tag=kind.probe_cost)
        with self._real_locks[index]:
            entry = self._tables[index].probe(key)
        p = _probe.CURRENT
        if p is not None:
            p.emit(kind.probe_event, stripe=index, hit=entry is not None)
        yield Release(lock)
        return entry

    def store_op(self, key: int, entry: TTEntry) -> TTStoreOp:
        index = self.stripe_of(key)
        lock = self._sim_locks[index]
        kind = self.kind
        self._note_contention(index, "store")
        yield Acquire(lock)
        yield Compute(getattr(self.cost_model, kind.store_cost), tag=kind.store_cost)
        table = self._tables[index]
        with self._real_locks[index]:
            evictions_before = table.evictions
            table.store(key, entry)
            evicted = table.evictions > evictions_before
        p = _probe.CURRENT
        if p is not None:
            p.emit(kind.store_event, stripe=index, evicted=evicted)
        yield Release(lock)


class _PrivateView:
    """One worker's private table plus cost-charging op wrappers.

    No locks anywhere: only its owning worker ever touches it (each pid
    is driven by exactly one thread/processor in every backend).
    """

    def __init__(self, capacity: int, cost_model: CostModel, kind: CacheKind, pid: int):
        self.pid = pid
        self.table = TranspositionTable(capacity=capacity)
        self._cost_model = cost_model
        self._kind = kind

    def __len__(self) -> int:
        return len(self.table)

    def probe(self, key: int) -> Optional[TTEntry]:
        return self.table.probe(key)

    def store(self, key: int, entry: TTEntry) -> None:
        self.table.store(key, entry)

    def probe_op(self, key: int) -> TTProbeOp:
        kind = self._kind
        yield Compute(getattr(self._cost_model, kind.probe_cost), tag=kind.probe_cost)
        entry = self.table.probe(key)
        p = _probe.CURRENT
        if p is not None:
            p.emit(kind.probe_event, stripe=-1, hit=entry is not None)
        return entry

    def store_op(self, key: int, entry: TTEntry) -> TTStoreOp:
        kind = self._kind
        yield Compute(getattr(self._cost_model, kind.store_cost), tag=kind.store_cost)
        evictions_before = self.table.evictions
        self.table.store(key, entry)
        p = _probe.CURRENT
        if p is not None:
            p.emit(kind.store_event, stripe=-1, evicted=self.table.evictions > evictions_before)


class WorkerLocalTT(_Summed):
    """Per-worker private tables — the ``private`` baseline.

    Every worker pays the same probe/store compute costs as the shared
    store but never contends and never benefits from a peer's work;
    comparing it against :class:`SimStripedTT` on one workload isolates
    the value of *sharing* from the value of *caching*.

    Args:
        capacity: entry budget **per worker** (not split — a private
            table the size of one shared stripe would handicap the
            baseline for free).
        kind: which table this is (:data:`TT` or :data:`EVAL`).
    """

    def __init__(
        self,
        capacity: int = 1 << 16,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        kind: CacheKind = TT,
    ):
        if capacity < 1:
            raise SearchError("table capacity must be positive")
        self.capacity = capacity
        self.cost_model = cost_model
        self.kind = kind
        self.contended = 0  # private tables never contend; kept for shape
        self._views: dict[int, _PrivateView] = {}

    def _parts(self) -> Iterable[TranspositionTable]:
        return [view.table for view in self._views.values()]

    def view(self, pid: int) -> _PrivateView:
        # dict.setdefault is GIL-atomic; each pid is requested by one
        # worker anyway, so the racy double-construction cannot happen.
        return self._views.setdefault(
            pid, _PrivateView(self.capacity, self.cost_model, self.kind, pid)
        )

    def clear(self) -> None:
        for view in self._views.values():
            view.table.clear()


#: What the sim/threaded drivers accept as a table or eval cache.
AnyTT = Union[SimStripedTT, WorkerLocalTT]


def _make(
    kind: CacheKind, mode: str, capacity: int, n_stripes: int, cost_model: CostModel
) -> Optional[AnyTT]:
    check_cache_mode(kind, mode)
    if mode == "private":
        return WorkerLocalTT(capacity, cost_model=cost_model, kind=kind)
    if mode == "shared":
        return SimStripedTT(capacity, n_stripes, cost_model=cost_model, kind=kind)
    return None


def make_tt(
    mode: str,
    *,
    capacity: int = 1 << 16,
    n_stripes: int = 8,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[AnyTT]:
    """Build the table for one ``--tt`` mode (``None`` for ``off``)."""
    return _make(TT, mode, capacity, n_stripes, cost_model)


def make_eval_cache(
    mode: str,
    *,
    capacity: int = 1 << 16,
    n_stripes: int = 8,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> Optional[AnyTT]:
    """Build the eval cache for one ``--eval-cache`` mode (``None`` for ``off``)."""
    return _make(EVAL, mode, capacity, n_stripes, cost_model)
