"""Concurrent keyed stores shared by the ER backends.

One keying seam (:func:`repro.games.base.hash_key`), one record
(:class:`~repro.search.transposition.TTEntry`), and three concurrency
shapes that serve both the transposition table and the static-eval
cache: :class:`SimStripedTT` for threads and the discrete-event
simulator, :class:`WorkerLocalTT` for the private baseline, and
:class:`SharedMemoryTT` for worker processes.  A :class:`CacheKind`
(:data:`TT` or :data:`EVAL`) fixed at construction names each table's
counters, costs, events and locks.  See DESIGN.md sections
"Transposition cache" and "Batched evaluation and the eval cache".
"""

from .sharedmem import SharedMemoryTT, TTHandle
from .striped import (
    CACHE_MODES,
    EVAL,
    TT,
    AnyTT,
    CacheKind,
    SimStripedTT,
    TTProbeOp,
    TTStoreOp,
    WorkerLocalTT,
    check_cache_mode,
    make_eval_cache,
    make_tt,
    static_entry,
)

__all__ = [
    "CACHE_MODES",
    "EVAL",
    "TT",
    "AnyTT",
    "CacheKind",
    "SharedMemoryTT",
    "SimStripedTT",
    "TTHandle",
    "TTProbeOp",
    "TTStoreOp",
    "WorkerLocalTT",
    "check_cache_mode",
    "make_eval_cache",
    "make_tt",
    "static_entry",
]
