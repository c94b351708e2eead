"""Search-as-a-service: concurrent "best move" queries over one warm pool.

The engines answer one search at a time; the ROADMAP's north star is a
system serving heavy traffic from many users.  This package is that
layer, stdlib-only like the rest of the repo:

* :mod:`.api` — the newline-delimited-JSON wire protocol
  (:class:`~repro.serve.api.SearchRequest` /
  :class:`~repro.serve.api.SearchReply`);
* :mod:`.scheduler` — asyncio request scheduler: admission control,
  priority-aware load shedding with explicit rejections, per-request
  deadlines over iterative deepening (anytime best-so-far answers), and
  graceful drain;
* :mod:`.pool` — the per-iteration fan-out engine over the persistent
  :class:`~repro.parallel.multiproc.EnginePool` (re-exported here): one
  long-lived multiprocess worker pool with one warm
  :class:`~repro.cache.sharedmem.SharedMemoryTT` and shared eval cache
  spanning requests and users;
* :mod:`.server` — the asyncio TCP server tying those together, with
  per-request spans, queue/latency metrics, and the Prometheus text
  endpoint mounted on live service metrics;
* :mod:`.client` — a small asyncio client (tests, ``profile-service
  --connect``);
* :mod:`.traffic` — deterministic synthetic traffic, its throughput and
  latency report, and the stage decomposition ``profile-service``
  prints.  It is imported on demand (``repro.serve.traffic``), not
  here: a process that serves or benchmarks requests never loads it.
"""

from .api import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    SearchReply,
    SearchRequest,
)
from .pool import EnginePool, PoolEngine, ResolvedPosition
from .scheduler import (
    SLO_LATENCY_BOUNDS,
    DeepeningEngine,
    IterationResult,
    RequestScheduler,
    ServeMetrics,
)
from .server import SearchService, ServeConfig, ServeWorkload, suite_catalog

__all__ = [
    "SLO_LATENCY_BOUNDS",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "SearchReply",
    "SearchRequest",
    "EnginePool",
    "PoolEngine",
    "ResolvedPosition",
    "DeepeningEngine",
    "IterationResult",
    "RequestScheduler",
    "ServeMetrics",
    "SearchService",
    "ServeConfig",
    "ServeWorkload",
    "suite_catalog",
]
