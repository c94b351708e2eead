"""The two priority queues of the parallel ER problem heap (Section 6).

* The **primary queue** holds *scheduled* work — mandatory work plus
  speculative work that has been committed to — ordered by node depth,
  deepest first.
* The **speculative queue** holds e-nodes offering *potential* speculative
  work (additional e-child selections), ranked by number of e-children
  already selected (fewer first) with ties broken in favour of shallower
  nodes; the paper calls this ordering naive and its Section 8 proposes
  improving it, which the ablation benchmark explores via ``SpecOrder``.

Entries are never removed eagerly: nodes invalidated by cutoffs are
discarded lazily when popped, matching a realistic lock-based
implementation and keeping queue operations O(log n).

Each queue carries a location ``name`` and reports every push and pop
through one call on the instrumentation probe (:mod:`repro.obs.probe`),
which hands it to each attached sink:

* the race trace sees a write to the queue, so the offline race
  detector can check that no queue is ever touched outside its lock;
* the telemetry bus gets a depth sample — because every backend
  funnels through these queues, that one call gives queue-depth and
  spec-heap-size traces for sim, threaded, and multiproc runs alike;
* on a pop, the critical-path recorder logs which queue handed out the
  tree node — the heap hand-off side of the dependency record, so
  critical-path blame rows can name the queue a path node travelled
  through.

``__len__`` is reported as a *relaxed* read: the distributed-heap
work-stealing pop deliberately peeks victim queue lengths without the
lock (emptiness races are benign; the popper re-checks under the lock).
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional

from ..obs import probe as _probe
from ..verify.trace import READ, WRITE

if TYPE_CHECKING:  # pragma: no cover
    from .er_parallel import PNode


class SpecOrder(Enum):
    """Ranking policies for the speculative queue."""

    #: The paper's ordering: fewest e-children first, then shallowest.
    PAPER = "paper"
    #: Plain FIFO — the "no ranking" straw man.
    FIFO = "fifo"
    #: Deepest nodes first (mirrors the primary queue's ordering).
    DEEPEST = "deepest"
    #: Best tentative value first — a "global ranking" candidate the
    #: paper's Section 8 calls for.
    BEST_VALUE = "best-value"


class _HeapQueue:
    """What the two queues share: entries ``(key, seq, node)``, and pop."""

    name: str
    _heap: list[tuple[Any, int, "PNode"]]

    def pop(self) -> Optional["PNode"]:
        p = _probe.CURRENT
        if not self._heap:
            if p is not None:
                p.access(self.name, WRITE)
            return None
        node = heapq.heappop(self._heap)[2]
        if p is not None:
            p.queue_pop(self.name, len(self._heap), node.path)
        return node

    def __len__(self) -> int:
        p = _probe.CURRENT
        if p is not None:
            p.access(self.name, READ, relaxed=True)
        return len(self._heap)


class PrimaryQueue(_HeapQueue):
    """Scheduled work, deepest node first."""

    def __init__(self, name: str = "heap.primary") -> None:
        self.name = name
        self._heap = []
        self._seq = 0

    def push(self, node: "PNode") -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-node.ply, self._seq, node))
        p = _probe.CURRENT
        if p is not None:
            p.queue_push(self.name, len(self._heap))


class SpeculativeQueue(_HeapQueue):
    """Potential speculative work (e-nodes awaiting extra e-children)."""

    def __init__(
        self, order: SpecOrder = SpecOrder.PAPER, name: str = "heap.speculative"
    ) -> None:
        self.name = name
        self._heap = []
        self._seq = 0
        self._order = order

    def _key(self, node: "PNode") -> tuple[float, ...]:
        if self._order is SpecOrder.PAPER:
            return (node.e_children, node.ply)
        if self._order is SpecOrder.FIFO:
            return ()
        if self._order is SpecOrder.DEEPEST:
            return (-node.ply,)
        # BEST_VALUE: most promising (lowest tentative value) first.
        return (node.value,)

    def push(self, node: "PNode") -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._key(node), self._seq, node))
        p = _probe.CURRENT
        if p is not None:
            p.queue_push(self.name, len(self._heap))
