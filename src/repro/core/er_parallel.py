"""Parallel ER — the paper's problem-heap implementation (Section 6).

Every simulated processor runs the same worker loop: take a node from the
problem heap (primary queue first, speculative queue as a fallback),
process it per Table 1, and when a subtree finishes, back its value up the
tree with the ``combine`` procedure, dispatching follow-on work per
Table 2.  Each Table 1 decision is one :class:`_Context` method, which
the simulator's worker generators wrap in lock and cost ops and the
multiproc coordinator (:class:`repro.parallel.multiproc.Coordinator`)
calls directly.  The three speculative mechanisms of Section 5 are all
present and individually switchable for the ablation benchmarks:

* **parallel refutation** — once an e-node's first e-child is evaluated,
  every remaining child becomes an r-node and is refuted concurrently;
* **early choice** — an e-node becomes eligible for e-child selection as
  soon as all but one of its elder grandchildren are evaluated;
* **multiple e-children** — idle processors pop e-nodes off the
  speculative queue and start evaluating their next-best child.

From ply ``serial_depth`` on, a popped e/r-node above the horizon ships
whole (:meth:`_Context.ships_whole`): serial ER searches it in one piece,
unexpanded (Table 3's "Serial Depth" column); undecided nodes still
expand their first child so the elder-grandchild structure survives
down to the boundary.

Faithfulness notes (deviations are deliberate and documented):

* cutoff checks walk the live ancestor chain, so deep cutoffs arise
  naturally (the paper's serial reference also uses deep cutoffs);
* queued nodes orphaned by a cutoff are discarded lazily when popped;
* a serial subtree search runs against the window captured when it
  starts, is charged simulated time in chunks, and is abandoned between
  chunks if an ancestor cutoff makes it moot — its node counts are still
  merged (the work was performed), only its remaining time is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..cache.striped import AnyTT, static_entry
from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError, SimulationError
from ..eval.evaluator import Evaluator
from ..games.base import (
    NEG_INF,
    POS_INF,
    Game,
    Path,
    Position,
    SearchProblem,
    hash_key,
    subproblem,
)
from ..obs import events as _obs
from ..obs import probe as _probe
from ..parallel.base import ParallelResult
from ..search.stats import SearchStats
from ..search.transposition import Bound, TTEntry, TTView, usable_value
from ..sim.engine import Engine
from ..sim.locks import SimLock, WorkSignal
from ..sim.ops import Acquire, Compute, Op, Release, WaitWork
from ..verify.trace import READ, WRITE
from .er_queues import PrimaryQueue, SpeculativeQueue, SpecOrder
from .serial_er import er_search

# Node types of Table 1.
E_NODE = "e"
R_NODE = "r"
UNDECIDED = "u"

# Verdicts of the pop-time screen (:meth:`_Context.screen`).
STALE = "stale"
CUT = "cut"
LIVE = "live"


@dataclass(frozen=True)
class ERConfig:
    """Tunables of the parallel ER engine.

    Attributes:
        serial_depth: the ply at or below which popped e/r-nodes are
            searched by serial ER in one piece (Table 3's "Serial Depth":
            a 10-ply search with serial depth 7 parallelizes plies 0-6 and
            searches height-3 subtrees serially).  Note the direction —
            *decreasing* it makes serial subtrees larger, which is why the
            paper says decreasing it trades contention for starvation.
        parallel_refutation: refute an e-node's remaining children
            concurrently (Section 5) rather than one at a time.
        early_choice: allow e-child selection when all but one elder
            grandchild is evaluated (via the speculative queue).
        multiple_e_children: allow idle processors to start additional
            e-children (via the speculative queue).
        deep_cutoff_checks: use the full ancestor window for cutoffs
            rather than only the parent bound.
        max_e_children: cap on concurrently selected e-children per node.
            Section 5's "multiple e-nodes" asks for *at least one active
            e-child*; an uncapped speculative queue can pile several
            full-window child evaluations onto the same node (the root's
            are quarter-trees), which is the dominant speculative loss.
        spec_order: ranking policy of the speculative queue.
        chunk_units: granularity (simulated time) at which long serial
            subtree searches can be abandoned after a cutoff.
        max_events: engine safety valve.
    """

    #: Default: no serial cutover (every node handled by the problem heap).
    serial_depth: int = 1_000_000
    parallel_refutation: bool = True
    early_choice: bool = True
    multiple_e_children: bool = True
    deep_cutoff_checks: bool = True
    #: Default: unbounded, as in the paper's speculative queue; the
    #: ablation benchmark sweeps tighter caps.
    max_e_children: int = 1_000_000
    #: Section 8 future work: per-processor work queues with stealing
    #: ("distributing work in a manner that reduces processor
    #: interaction") instead of one shared primary queue.
    distributed_heap: bool = False
    spec_order: SpecOrder = SpecOrder.PAPER
    chunk_units: float = 400.0
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if self.serial_depth < 0:
            raise SearchError("serial_depth must be non-negative")
        if self.max_e_children < 1:
            raise SearchError("max_e_children must be at least 1")
        if self.chunk_units <= 0:
            raise SearchError("chunk_units must be positive")


class PNode:
    """Shared-tree node state for the parallel search."""

    __slots__ = (
        "position",
        "path",
        "ply",
        "parent",
        "ntype",
        "value",
        "done",
        "counted",
        "elder_counted",
        "child_positions",
        "children",
        "next_child",
        "combined_children",
        "elder_done",
        "e_children",
        "e_child_selected",
        "refutation_started",
        "on_spec",
        "is_leaf",
        "expansion_charged",
    )

    def __init__(
        self,
        position: Position,
        path: Path,
        ply: int,
        parent: Optional["PNode"],
        ntype: str,
    ) -> None:
        self.position = position
        self.path = path
        self.ply = ply
        self.parent = parent
        self.ntype = ntype
        self.value: float = NEG_INF
        self.done = False
        self.counted = False  # contributed to parent's combined count
        self.elder_counted = False  # contributed to parent's elder count
        self.child_positions: Optional[list[Position]] = None
        self.children: Optional[list[Optional["PNode"]]] = None
        self.next_child = 0  # next child index to dispatch
        self.combined_children = 0
        self.elder_done = 0  # children holding a tentative value
        self.e_children = 0  # children dispatched as e-children
        self.e_child_selected = False
        self.refutation_started = False
        self.on_spec = False
        self.is_leaf = False
        self.expansion_charged = False

    @property
    def n_children(self) -> int:
        return 0 if self.child_positions is None else len(self.child_positions)

    @property
    def has_tentative(self) -> bool:
        return self.elder_counted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PNode(path={self.path}, type={self.ntype}, value={self.value}, "
            f"done={self.done}, combined={self.combined_children}/{self.n_children})"
        )


class _Context:
    """State shared by all workers of one parallel ER run."""

    def __init__(
        self,
        problem: SearchProblem,
        cost_model: CostModel,
        config: ERConfig,
        trace: bool,
        n_processors: int = 1,
        tt: Optional[AnyTT] = None,
        eval_cache: Optional[AnyTT] = None,
        batch_eval: bool = False,
    ) -> None:
        self.problem = problem
        self.cost_model = cost_model
        self.config = config
        self.trace = trace
        self.n_processors = n_processors
        self.tt = tt
        self.eval_cache = eval_cache
        self.batch_eval = batch_eval
        self.heap_lock = SimLock("heap")
        self.tree_lock = SimLock("tree")
        self.work = WorkSignal("er-work")
        self.primary = PrimaryQueue()
        self.speculative = SpeculativeQueue(config.spec_order)
        if config.distributed_heap:
            self.local_queues = [
                PrimaryQueue(name=f"heap.local-{i}") for i in range(n_processors)
            ]
            self.local_locks = [SimLock(f"heap-{i}") for i in range(n_processors)]
        else:
            self.local_queues = []
            self.local_locks = []
        self.root = PNode(problem.game.root(), (), 0, None, E_NODE)
        self.done = False
        self.counters = {
            "pops_primary": 0,
            "pops_speculative": 0,
            "stale_discards": 0,
            "cutoff_discards": 0,
            "serial_searches": 0,
            "serial_aborts": 0,
            "spec_selections": 0,
            "mandatory_selections": 0,
            "refutation_conversions": 0,
            "steals": 0,
        }
        if config.distributed_heap:
            self.local_queues[0].push(self.root)
        else:
            self.primary.push(self.root)

    def new_stats(self) -> SearchStats:
        """A fresh accumulator; it logs examined positions when traced."""
        return SearchStats.with_trace(self.problem.game) if self.trace else SearchStats()

    def examined(self, node: PNode, cost: float) -> tuple[tuple[int, float], ...]:
        """``node``'s trace entry, for the ``Compute`` examining it (if traced)."""
        return ((hash_key(self.problem.game, node.position), cost),) if self.trace else ()

    def release(self) -> None:
        """Break the finished tree's parent<->children cycles.

        Every node's ``parent`` link is cleared, walking down from the
        root, so the tree frees by refcount as soon as its driver drops
        it instead of waiting for a full cyclic collection.  Called once
        the run is over (no worker touches the tree again); it reports no
        access and emits no event, so traces are unchanged.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.parent = None
            if node.children:
                stack.extend(child for child in node.children if child is not None)

    # -- shared-state instrumentation --------------------------------------

    def _bump(self, key: str, amount: int = 1) -> None:
        """Increment a protocol counter, reporting the write to the tracer.

        Each counter key is its own trace location (``counters.<key>``);
        the race detector checks that every key is bumped under one
        consistent lock (pops under the heap lock, tree bookkeeping under
        the tree lock).
        """
        p = _probe.CURRENT
        if p is not None:
            p.access(f"counters.{key}", WRITE)
        self.counters[key] += amount

    @staticmethod
    def _emit(etype: str, node: PNode, **data: object) -> None:
        """Publish a node lifecycle event to the telemetry bus, if any.

        Values can be infinite sentinels (``NEG_INF`` placeholders, beta
        cutoff floors); they are stringified so every event payload stays
        strict-JSON-serializable.
        """
        p = _probe.CURRENT
        if p is not None:
            p.node_event(etype, node.path, **data)

    @staticmethod
    def _note(node: PNode, kind: str) -> None:
        """Report an access to ``node``'s shared state to the tracer.

        Node locations are checked by happens-before only: ownership of a
        node legitimately transfers between workers through the locked
        problem heap (push under one critical section, pop under another),
        which a pure lockset analysis would misreport.
        """
        p = _probe.CURRENT
        if p is not None:
            p.node_access(node.path, kind)

    # -- window / cutoff machinery ----------------------------------------

    def window(self, node: PNode) -> tuple[float, float]:
        """Current alpha-beta window of ``node`` from the live tree."""
        parent = node.parent
        if parent is None:
            return (NEG_INF, POS_INF)
        if self.config.deep_cutoff_checks:
            p_alpha, p_beta = self.window(parent)
        else:
            p_alpha, p_beta = NEG_INF, POS_INF
        floor = max(parent.value, p_alpha)
        return (-p_beta, -floor)

    def is_cut_off(self, node: PNode) -> bool:
        alpha, beta = self.window(node)
        return node.value >= beta or alpha >= beta

    def has_finished_ancestor(self, node: PNode) -> bool:
        """True when some strict ancestor already combined or was cut off."""
        ancestor = node.parent
        while ancestor is not None:
            if ancestor.done:
                return True
            ancestor = ancestor.parent
        return False

    # -- heap operations (caller holds heap_lock) --------------------------

    def publish(self, pushes: list[tuple[str, PNode]]) -> None:
        """Push queued work onto the central primary/speculative queues."""
        for queue_name, node in pushes:
            if queue_name == "primary":
                self.primary.push(node)
            else:
                self.speculative.push(node)

    def pop_work(self) -> tuple[Optional[PNode], bool]:
        node = self.primary.pop()
        if node is not None:
            self._bump("pops_primary")
            self._emit(_obs.EV_NODE_POPPED, node, speculative=False)
            return node, False
        node = self.speculative.pop()
        if node is not None:
            # ``on_spec`` stays True until speculative_step clears it
            # under the tree lock: every access to node state is tree-locked,
            # and a concurrent maybe_push_spec cannot double-push meanwhile.
            self._bump("pops_speculative")
            self._emit(_obs.EV_NODE_POPPED, node, speculative=True)
            return node, True
        return None, False

    # -- tree operations (caller holds tree_lock) ---------------------------

    def evaluator_for(self, pid: int, game: Optional[Game] = None) -> Optional[Evaluator]:
        """This worker's batched evaluator, or ``None`` when both the
        batching flag and the eval cache are off.

        ``game`` overrides the evaluation substrate (serial subtrees pass
        their :class:`~repro.games.base.RootedGame`, which forwards
        ``hash_key`` and ``batch_eval`` to the base game, so keys and
        values stay identical across workers).
        """
        if not self.batch_eval and self.eval_cache is None:
            return None
        cache = None if self.eval_cache is None else self.eval_cache.view(pid)
        target = self.problem.game if game is None else game
        return Evaluator(target, self.cost_model, cache)

    def expand_positions(
        self, node: PNode, stats: SearchStats, pid: int = 0
    ) -> tuple[float, tuple[tuple[str, float], ...]]:
        """Generate and cache child positions; returns the cost to charge.

        Children of e-nodes keep the game's move order; all other nodes
        pre-sort by static value per the problem's ordering policy
        (Section 7: "successors of e-nodes were also not sorted").

        Returns ``(cost, parts)`` where ``parts`` splits the charge into
        its cost primitives (pure expansion vs the static evaluations of
        move ordering) for critical-path attribution.
        """
        if node.child_positions is not None:
            return 0.0, ()
        game = self.problem.game
        successors = (
            []
            if self.problem.is_horizon(node.ply)
            else list(game.children(node.position))
        )
        # Written without a lock: between pop and publish the popping
        # worker owns the node, and a first expansion cannot overlap any
        # other worker's access (children do not exist yet, so no combine
        # can reach it); the handoff itself is ordered by the heap lock.
        self._note(node, WRITE)
        if not successors:
            node.is_leaf = True
            node.child_positions = []
            node.children = []
            return 0.0, ()
        expand_cost = stats.on_expand(node.position, len(successors), self.cost_model)
        ordering_cost = 0.0
        ordering_parts: tuple[tuple[str, float], ...] = ()
        if node.ntype != E_NODE and self.problem.should_sort(node.ply):
            evaluator = self.evaluator_for(pid)
            if evaluator is not None:
                # Batched (and possibly cached) ordering evaluations; the
                # evaluator charges stats directly and reports the split.
                stats.note_ordering(len(successors))
                static, ordering_parts = evaluator.frontier_values(successors, stats)
                ordering_cost = sum(weight for _, weight in ordering_parts)
            else:
                ordering_cost = stats.on_ordering(len(successors), self.cost_model)
                ordering_parts = (("static_eval", ordering_cost),)
                static = [game.evaluate(child) for child in successors]
            order = sorted(range(len(successors)), key=static.__getitem__)
            successors = [successors[i] for i in order]
        node.child_positions = successors
        node.children = [None] * len(successors)
        parts: tuple[tuple[str, float], ...] = (("expansion", expand_cost),) + ordering_parts
        return expand_cost + ordering_cost, parts

    def make_child(self, node: PNode, index: int, ntype: str) -> PNode:
        assert node.child_positions is not None and node.children is not None
        self._note(node, WRITE)
        child = PNode(
            node.child_positions[index],
            node.path + (index,),
            node.ply + 1,
            node,
            ntype,
        )
        node.children[index] = child
        self._emit(_obs.EV_NODE_CREATED, child, ntype=ntype)
        return child

    def maybe_push_spec(self, node: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """Queue ``node`` for speculative e-child selection if eligible."""
        if node.ntype != E_NODE or node.done or node.on_spec:
            return
        if node.child_positions is None or node.is_leaf:
            return
        if node.elder_done < node.n_children - 1:
            return
        if node.e_child_selected and not self.config.multiple_e_children:
            return
        if self._active_e_children(node) >= self.config.max_e_children:
            return
        if self._best_candidate(node) is None:
            return
        self._note(node, WRITE)
        node.on_spec = True
        pushes.append(("spec", node))

    def _active_e_children(self, node: PNode) -> int:
        """E-children of ``node`` whose evaluation is still in flight."""
        if node.children is None:
            return 0
        return sum(
            1
            for child in node.children
            if child is not None and child.ntype == E_NODE and not child.done
        )

    def _best_candidate(self, node: PNode, include_refutable: bool = False) -> Optional[PNode]:
        """Best unstarted child of an e-node: lowest tentative value.

        For *speculative selection* children whose tentative value already
        refutes them are skipped — evaluating them cannot pay off
        (Section 5: select "the node with the most optimistic bound").
        Refutation release must pass ``include_refutable=True``: every
        remaining child has to be dispatched eventually, refutable or not,
        or the parent would never combine.
        """
        assert node.children is not None
        node_alpha, _ = self.window(node)
        child_beta = -max(node.value, node_alpha)
        best: Optional[PNode] = None
        for child in node.children:
            if child is None or child.done or child.ntype != UNDECIDED:
                continue
            if not child.has_tentative:
                continue
            if not include_refutable and child.value >= child_beta:
                continue
            if best is None or child.value < best.value:
                best = child
        return best

    def select_e_child(self, node: PNode, pushes: list[tuple[str, PNode]], mandatory: bool) -> bool:
        """Promote the best candidate child of ``node`` to an e-child.

        A mandatory selection falls back to a refutable candidate when no
        promising one exists: some child must be dispatched or the node
        would never combine (the dispatched child is then cut off cheaply
        at pop time, which triggers refutation of the rest).
        """
        candidate = self._best_candidate(node)
        if candidate is None and mandatory:
            candidate = self._best_candidate(node, include_refutable=True)
        if candidate is None:
            return False
        self._note(candidate, WRITE)
        self._note(node, WRITE)
        candidate.ntype = E_NODE
        node.e_children += 1
        node.e_child_selected = True
        self._bump("mandatory_selections" if mandatory else "spec_selections")
        self._emit(_obs.EV_CLASS_FLIP, candidate, flip="u->e", mandatory=mandatory)
        pushes.append(("primary", candidate))
        return True

    def start_refutation(self, node: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """Table 2, row 3: convert remaining children to r-nodes."""
        self._note(node, WRITE)
        node.refutation_started = True
        assert node.children is not None
        # Only children whose Eval_first has completed are released now; a
        # child whose first-grandchild evaluation is still in flight joins
        # the refutation when that evaluation combines (the UNDECIDED
        # branch of _dispatch_at).  Converting an in-flight child here
        # would dispatch it while its own subtree is still being written.
        candidates = [
            child
            for child in node.children
            if child is not None
            and not child.done
            and child.ntype == UNDECIDED
            and child.has_tentative
        ]
        # Refute in ascending tentative-value order — the parallel analogue
        # of serial ER's sort before its refutation loop (Figure 8).
        candidates.sort(key=lambda c: c.value)
        if not self.config.parallel_refutation:
            # Sequential ablation: release only the best candidate; the
            # next is released when this one combines (see combine()).
            candidates = candidates[:1]
        for child in candidates:
            self._convert_to_r(child, pushes)

    def _convert_to_r(self, child: PNode, pushes: list[tuple[str, PNode]]) -> None:
        self._note(child, WRITE)
        child.ntype = R_NODE
        if child.child_positions is not None and not child.is_leaf:
            child.next_child = max(child.next_child, 1)
        self._bump("refutation_conversions")
        self._emit(_obs.EV_CLASS_FLIP, child, flip="u->r")
        pushes.append(("primary", child))

    # -- the Table 1 steps (caller holds tree_lock; see module docstring) -----

    def screen(self, node: PNode) -> tuple[str, tuple[float, float]]:
        """Pop-time screen of a primary node against the live tree.

        Returns ``(verdict, window)``: :data:`STALE` when the node or an
        ancestor already finished (nothing to do), :data:`CUT` when the
        window refutes it (its value is raised to the cutoff floor; the
        caller finishes it), else :data:`LIVE`.
        """
        self._note(node, READ)
        if node.done or self.has_finished_ancestor(node):
            self._bump("stale_discards")
            return STALE, (NEG_INF, POS_INF)
        window = self.window(node)
        alpha, beta = window
        if node.value >= beta or alpha >= beta:
            self._note(node, WRITE)
            if beta > node.value:
                node.value = beta
            self._bump("cutoff_discards")
            return CUT, window
        return LIVE, window

    def ships_whole(self, node: PNode) -> bool:
        """Whether ``node`` goes to serial ER in one piece, unexpanded (Table 3).

        The serial search generates its children (and scores a game-over
        position) itself.
        """
        return (
            node.ntype in (E_NODE, R_NODE)
            and node.ply >= self.config.serial_depth
            and not self.problem.is_horizon(node.ply)
        )

    def expand_children(self, node: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """Table 1 node generation above serial depth."""
        self._note(node, WRITE)
        if node.ntype == E_NODE:
            # Generate all (remaining) children as undecided nodes.  A
            # promoted e-child arrives here with its first child already
            # evaluated; only the empty slots are dispatched.
            assert node.children is not None
            for index in range(node.n_children):
                if node.children[index] is None:
                    pushes.append(("primary", self.make_child(node, index, UNDECIDED)))
            node.next_child = node.n_children
        elif node.ntype == UNDECIDED:
            # Generate the first child as an e-node.
            if node.next_child == 0:
                pushes.append(("primary", self.make_child(node, 0, E_NODE)))
                node.next_child = 1
        elif node.next_child < node.n_children:  # R_NODE: one child at a time
            ntype = E_NODE if node.next_child == 0 else R_NODE
            pushes.append(("primary", self.make_child(node, node.next_child, ntype)))
            node.next_child += 1

    def speculative_step(self, node: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """A speculative-queue pop: select one more e-child of ``node``."""
        self._note(node, WRITE)
        node.on_spec = False
        if (
            not node.done
            and not self.has_finished_ancestor(node)
            and not self.is_cut_off(node)
            and self._active_e_children(node) < self.config.max_e_children
        ):
            if self.select_e_child(node, pushes, mandatory=False):
                # Leave the node eligible for yet another e-child.
                self.maybe_push_spec(node, pushes)
        else:
            self._bump("stale_discards")

    def refute_plan(
        self, node: PNode, window: tuple[float, float]
    ) -> tuple[float, int, bool]:
        """Plan the serial refutation of an r-node's remaining children.

        Returns ``(value, start, settled)``: the running value
        ``max(node.value, alpha)``, the first child left to search, and
        whether the node finishes with ``value`` without searching —
        because a sibling's result tightened the window since the pop-time
        screen (``value >= beta``), or because no child is left.
        """
        self._note(node, READ)
        value = max(node.value, window[0])
        start = node.next_child
        return value, start, value >= window[1] or start >= node.n_children

    def finish(
        self,
        node: PNode,
        pushes: list[tuple[str, PNode]],
        *,
        value: Optional[float] = None,
        refute_if_cut: bool = False,
    ) -> int:
        """Mark ``node`` done and combine it; returns levels walked.

        ``value`` is a search result to fold into ``node.value`` first.
        ``refute_if_cut`` applies :meth:`_mark_refuted_if_cut` for
        abandoned serial searches.
        """
        self._note(node, WRITE)
        if value is not None and value > node.value:
            node.value = value
        if refute_if_cut:
            self._mark_refuted_if_cut(node)
        node.done = True
        self._emit(_obs.EV_NODE_DONE, node, value=node.value, cutoff=False)
        return self.combine(node, pushes)

    def _mark_refuted_if_cut(self, node: PNode) -> None:
        """After an abort caused by a live-window cutoff, record "refuted".

        Fail-hard semantics: a node cut off at ``beta`` stands for "at
        least beta", which its parent folds in as a no-op or a legitimate
        floor.  Aborts caused purely by a finished ancestor leave the
        value alone — combine ignores the orphaned subtree entirely.
        """
        if node.done or self.has_finished_ancestor(node):
            return
        if self.is_cut_off(node):
            _, beta = self.window(node)
            if beta != POS_INF and beta > node.value:
                node.value = beta

    # -- the combine procedure (Section 6) ----------------------------------

    def combine(self, node: PNode, pushes: list[tuple[str, PNode]]) -> int:
        """Back ``node``'s value up the tree; returns levels walked.

        Walks upward while ancestors finish (all children combined) or are
        cut off; stops at the first live ancestor with remaining work and
        performs the Table 2 dispatch there.
        """
        levels = 0
        current = node
        while True:
            parent = current.parent
            if parent is None:
                if current.done:
                    self.done = True
                return levels
            if parent.done:
                return levels  # orphaned subtree; results are moot
            levels += 1
            self._note(current, WRITE)
            self._note(parent, WRITE)
            if current.done:
                if not current.counted:
                    current.counted = True
                    parent.combined_children += 1
                if not current.elder_counted:
                    current.elder_counted = True
                    parent.elder_done += 1
                # A child abandoned with no information (value still -inf,
                # e.g. an aborted serial search under a finished ancestor)
                # must not contribute a bogus +inf to its parent.
                if current.value != NEG_INF and -current.value > parent.value:
                    parent.value = -current.value
            # Does the parent finish or die right now?
            if (
                parent.child_positions is not None
                and parent.combined_children == parent.n_children
            ):
                parent.done = True
                self._emit(_obs.EV_NODE_DONE, parent, value=parent.value, cutoff=False)
                current = parent
                continue
            if self.is_cut_off(parent):
                alpha, beta = self.window(parent)
                if beta > parent.value:
                    parent.value = beta  # fail-hard: "at least beta"
                parent.done = True
                self._bump("cutoff_discards")
                self._emit(_obs.EV_NODE_DONE, parent, value=parent.value, cutoff=True)
                current = parent
                continue
            # Parent lives on with remaining work: Table 2 actions.
            self._dispatch_at(parent, current, pushes)
            return levels

    def _dispatch_at(self, parent: PNode, completed: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """Table 2: schedule follow-on work at the stop node's level."""
        if parent.ntype == UNDECIDED:
            # The parent's first child acquired a value, i.e. one more
            # elder grandchild of the grandparent is evaluated.
            grand = parent.parent
            if not parent.elder_counted:
                self._note(parent, WRITE)
                parent.elder_counted = True
                if grand is not None and not grand.done:
                    self._note(grand, WRITE)
                    grand.elder_done += 1
            if grand is not None and not grand.done and grand.ntype == E_NODE:
                if grand.refutation_started:
                    # Refutation already under way: this late child joins it.
                    self._convert_to_r(parent, pushes)
                else:
                    self._check_e_node(grand, pushes)
        elif parent.ntype == R_NODE:
            # Sequential refutation: dispatch the next child, if any.
            if (
                parent.child_positions is not None
                and parent.next_child < parent.n_children
            ):
                pushes.append(("primary", parent))
        elif parent.ntype == E_NODE:
            if completed.ntype == E_NODE and not parent.refutation_started:
                # The first e-child finished: refute the remaining children.
                self.start_refutation(parent, pushes)
            elif parent.refutation_started and not self.config.parallel_refutation:
                # Sequential-refutation ablation: release the next child.
                best = self._best_candidate(parent, include_refutable=True)
                if best is not None:
                    self._convert_to_r(best, pushes)
            else:
                self._check_e_node(parent, pushes)

    def _check_e_node(self, node: PNode, pushes: list[tuple[str, PNode]]) -> None:
        """Table 2, rows 1-2: e-child selection and speculative eligibility.

        With early choice on, the first e-child is selected as soon as all
        but one of the elder grandchildren are evaluated (Section 6: "we
        select the e-child of an e-node as soon as all but one of the
        elder grandchildren have been evaluated") — the one-straggler gate
        would otherwise stall the whole subtree on its slowest branch.
        """
        if node.done or node.child_positions is None:
            return
        threshold = node.n_children - 1 if self.config.early_choice else node.n_children
        if node.elder_done >= threshold and not node.e_child_selected:
            if self.select_e_child(node, pushes, mandatory=True):
                return
        self.maybe_push_spec(node, pushes)


def _cp_path(node: PNode) -> str:
    """Node path for critical-path blame — only built when recording."""
    p = _probe.CURRENT
    if p is None or p.schedule is None:
        return ""
    return _probe.node_label(node.path)


def _serial_parts(cm: CostModel, sub: SearchStats) -> tuple[tuple[str, float], ...]:
    """Decompose a serial subtree search's cost into its primitives.

    Reconstructed from the substats counters with the same arithmetic
    the stats hooks charged, so the weights sum to ``sub.cost`` exactly;
    the critical-path walker splits each serial chunk's path time
    proportionally.  ``static_evals`` (full-price evaluations) is the
    counter to use here — with batching or a cache, ``leaf_evals`` and
    ``ordering_evals`` count work whose cost was charged under
    ``batch_eval``/``eval_cache`` instead.
    """
    weights = {
        "static_eval": sub.static_evals * cm.static_eval,
        "expansion": sub.interior_visits * cm.expand_base + sub.nodes_generated * cm.expand_per_child,
        "tt_probe": sub.tt_probes * cm.tt_probe,
        "tt_store": sub.tt_stores * cm.tt_store,
        "batch_eval": sub.batch_calls * cm.batch_eval_base + sub.batch_leaves * cm.batch_eval_per_leaf,
        "eval_cache": sub.eval_probes * cm.eval_cache_probe + sub.eval_stores * cm.eval_cache_store,
    }
    return tuple((name, weight) for name, weight in weights.items() if weight > 0)


def _worker(ctx: _Context, stats: SearchStats, pid: int = 0) -> Generator[Op, None, None]:
    """The per-processor loop of Section 6."""
    cm = ctx.cost_model
    while not ctx.done:
        if ctx.config.distributed_heap:
            node, from_spec, seen_version = yield from _pop_distributed(ctx, pid)
        else:
            yield Acquire(ctx.heap_lock)
            yield Compute(cm.heap_op, tag="heap_op")
            node, from_spec = ctx.pop_work()
            seen_version = ctx.work.version
            yield Release(ctx.heap_lock)
        if node is None:
            if ctx.done:
                return
            yield WaitWork(ctx.work, seen_version)
            continue
        if from_spec:
            yield from _process_speculative(ctx, node, stats, pid)
        else:
            yield from _process_primary(ctx, node, stats, pid)
    return


def _pop_distributed(
    ctx: _Context, pid: int
) -> Generator[Op, None, tuple[Optional[PNode], bool, int]]:
    """Pop under per-processor queues: own queue, then steal, then spec.

    The Section 8 "distribute work to reduce processor interaction"
    variant: each processor has a private deque; an empty processor scans
    the others round-robin (peeking lengths without the lock, as a real
    work-stealing deque would) and falls back to the shared speculative
    queue.  Returns ``(node, from_spec, seen_version)``.
    """
    cm = ctx.cost_model
    seen_version = ctx.work.version
    own_lock = ctx.local_locks[pid]
    yield Acquire(own_lock)
    yield Compute(cm.heap_op, tag="heap_op")
    node = ctx.local_queues[pid].pop()
    if node is not None:
        ctx._bump("pops_primary")
        ctx._emit(_obs.EV_NODE_POPPED, node, speculative=False)
    yield Release(own_lock)
    if node is not None:
        return node, False, seen_version
    for offset in range(1, ctx.n_processors):
        victim = (pid + offset) % ctx.n_processors
        if len(ctx.local_queues[victim]) == 0:
            continue  # lock-free peek; emptiness races are benign
        yield Acquire(ctx.local_locks[victim])
        yield Compute(cm.heap_op, tag="heap_op")
        node = ctx.local_queues[victim].pop()
        if node is not None:
            ctx._bump("pops_primary")
            ctx._bump("steals")
            ctx._emit(_obs.EV_NODE_POPPED, node, speculative=False)
        yield Release(ctx.local_locks[victim])
        if node is not None:
            return node, False, seen_version
    yield Acquire(ctx.heap_lock)
    yield Compute(cm.heap_op, tag="heap_op")
    spec = ctx.speculative.pop()
    if spec is not None:
        # on_spec is cleared by speculative_step under the tree lock.
        ctx._bump("pops_speculative")
        ctx._emit(_obs.EV_NODE_POPPED, spec, speculative=True)
    yield Release(ctx.heap_lock)
    return spec, spec is not None, seen_version


def _push_all(
    ctx: _Context, pushes: list[tuple[str, PNode]], pid: int = 0
) -> Generator[Op, None, None]:
    """Publish queued work under the appropriate heap lock(s)."""
    if not pushes:
        return
    if ctx.config.distributed_heap:
        primaries = [n for q, n in pushes if q == "primary"]
        speculatives = [n for q, n in pushes if q != "primary"]
        if primaries:
            yield Acquire(ctx.local_locks[pid])
            yield Compute(ctx.cost_model.heap_op * len(primaries), tag="heap_op")
            for node in primaries:
                ctx.local_queues[pid].push(node)
            yield Release(ctx.local_locks[pid])
        if speculatives:
            yield Acquire(ctx.heap_lock)
            yield Compute(ctx.cost_model.heap_op * len(speculatives), tag="heap_op")
            for node in speculatives:
                ctx.speculative.push(node)
            yield Release(ctx.heap_lock)
        ctx.work.notify_all()
        return
    yield Acquire(ctx.heap_lock)
    yield Compute(ctx.cost_model.heap_op * len(pushes), tag="heap_op")
    ctx.publish(pushes)
    ctx.work.notify_all()
    yield Release(ctx.heap_lock)


def _finish_node(
    ctx: _Context,
    node: PNode,
    stats: SearchStats,
    pid: int = 0,
    *,
    value: Optional[float] = None,
    refute_if_cut: bool = False,
) -> Generator[Op, None, None]:
    """Run :meth:`_Context.finish` under the tree lock.

    The search result ``value`` is published under the lock, so no worker
    ever writes tree state unlocked (publishing the value and marking the
    node done are one critical section).
    """
    yield Acquire(ctx.tree_lock)
    pushes: list[tuple[str, PNode]] = []
    levels = ctx.finish(node, pushes, value=value, refute_if_cut=refute_if_cut)
    yield Compute(
        ctx.cost_model.combine_step * max(1, levels),
        tag="combine_step", node=_cp_path(node), cls=node.ntype,
    )
    if ctx.done:
        ctx.work.notify_all()
    yield Release(ctx.tree_lock)
    yield from _push_all(ctx, pushes, pid)


def _process_speculative(
    ctx: _Context, node: PNode, stats: SearchStats, pid: int = 0
) -> Generator[Op, None, None]:
    """Pop from the speculative queue: select one more e-child."""
    cm = ctx.cost_model
    yield Acquire(ctx.tree_lock)
    yield Compute(cm.bookkeeping, tag="bookkeeping", node=_cp_path(node), cls=node.ntype)
    pushes: list[tuple[str, PNode]] = []
    ctx.speculative_step(node, pushes)
    yield Release(ctx.tree_lock)
    yield from _push_all(ctx, pushes, pid)


def _tt_view(ctx: _Context, pid: int) -> Optional[TTView]:
    """This worker's handle on the run's transposition table, if any."""
    return None if ctx.tt is None else ctx.tt.view(pid)


def _tt_probe_parallel(
    ctx: _Context,
    node: PNode,
    window: tuple[float, float],
    stats: SearchStats,
    pid: int,
) -> Generator[Op, None, Optional[float]]:
    """Probe the table for a finished answer to ``node``.

    Runs with *no* locks held (the stripe SimLock is acquired inside the
    op, and the internal stripe locks are leaves), against the window
    captured under the tree lock at pop time.  Staleness is benign: the
    live window only tightens, so an entry usable for the captured window
    finishes the node exactly the way the existing cutoff-discard and
    fail-high paths do — EXACT adopts a true value, LOWER ``>= beta``
    mirrors a cutoff floor, UPPER ``<= alpha`` is the fail-high of an
    already-irrelevant branch.

    Returns the adopted value, or ``None`` on a miss.  Stores are *not*
    issued at the parallel level for combined nodes — values assembled
    from the live tree mix windows from different instants, so only the
    serial subtree searches (whose windows are pinned) write entries.
    """
    if ctx.tt is None:
        return None
    stats.on_tt_probe(ctx.cost_model)
    entry = yield from ctx.tt.view(pid).probe_op(hash_key(ctx.problem.game, node.position))
    return usable_value(entry, ctx.problem.depth - node.ply, *window)


def _tt_store_leaf(
    ctx: _Context, node: PNode, value: float, stats: SearchStats, pid: int
) -> Generator[Op, None, None]:
    """Record a parallel-level leaf evaluation (exact at any window)."""
    if ctx.tt is None:
        return
    stats.on_tt_store(ctx.cost_model)
    entry = TTEntry(value, ctx.problem.depth - node.ply, Bound.EXACT, None)
    yield from ctx.tt.view(pid).store_op(hash_key(ctx.problem.game, node.position), entry)


def _eval_probe_parallel(
    ctx: _Context, node: PNode, stats: SearchStats, pid: int
) -> Generator[Op, None, Optional[float]]:
    """Probe the eval cache for a parallel-level leaf's static value.

    Runs with no locks held (the stripe SimLock is acquired inside the
    op, and the internal stripe locks are leaves).  Every hit is
    unconditionally usable — static values carry no window or depth.
    """
    if ctx.eval_cache is None:
        return None
    entry = yield from ctx.eval_cache.view(pid).probe_op(
        hash_key(ctx.problem.game, node.position)
    )
    stats.on_eval_probe(ctx.cost_model, hit=entry is not None)
    return None if entry is None else entry.value


def _eval_store_parallel(
    ctx: _Context, node: PNode, value: float, stats: SearchStats, pid: int
) -> Generator[Op, None, None]:
    """Record a parallel-level leaf's static value in the eval cache."""
    if ctx.eval_cache is None:
        return
    stats.on_eval_store(ctx.cost_model)
    yield from ctx.eval_cache.view(pid).store_op(
        hash_key(ctx.problem.game, node.position), static_entry(value)
    )


def _extras_with_tt(ctx: _Context) -> dict[str, int]:
    """Protocol counters plus the cache subsystems' own tallies."""
    extras = dict(ctx.counters)
    if ctx.tt is not None:
        extras.update(ctx.tt.counter_snapshot())
    if ctx.eval_cache is not None:
        extras.update(ctx.eval_cache.counter_snapshot())
    return extras


def _process_primary(
    ctx: _Context, node: PNode, stats: SearchStats, pid: int = 0
) -> Generator[Op, None, None]:
    """Pop from the primary queue: Table 1 node generation."""
    cm = ctx.cost_model

    # Staleness and cutoff screening against the live tree.
    yield Acquire(ctx.tree_lock)
    yield Compute(cm.bookkeeping, tag="bookkeeping", node=_cp_path(node), cls=node.ntype)
    verdict, window = ctx.screen(node)
    yield Release(ctx.tree_lock)
    if verdict == STALE:
        return
    if verdict == CUT:
        yield from _finish_node(ctx, node, stats, pid)
        return

    # A transposition may already answer this whole subtree (no locks
    # held; the cutoff semantics of a usable bounded hit mirror the
    # cutoff-discard path above).
    hit = yield from _tt_probe_parallel(ctx, node, window, stats, pid)
    if hit is not None:
        yield from _finish_node(ctx, node, stats, pid, value=hit)
        return

    if ctx.ships_whole(node):
        if node.next_child > 0:
            # First child already fully evaluated while the node was
            # undecided: search only the remaining children serially.
            yield from _serial_refute_remaining(ctx, node, stats, window, pid)
        else:
            yield from _serial_evaluate(ctx, node, stats, window, pid)
        return

    # Generate child positions (cheap move generation, outside the locks).
    expand_cost, expand_parts = ctx.expand_positions(node, stats, pid)
    if expand_cost:
        yield Compute(
            expand_cost,
            tag="expansion", node=_cp_path(node), cls=node.ntype, parts=expand_parts,
            keys=ctx.examined(node, expand_cost),
        )

    if node.is_leaf:
        # The eval cache may already hold this position's static value
        # (no locks held; hits need no window/depth qualification).
        cached = yield from _eval_probe_parallel(ctx, node, stats, pid)
        if cached is not None:
            stats.note_leaf(node.position)
            leaf_value = cached
        else:
            charged = stats.on_leaf(node.position, cm)
            yield Compute(
                charged, tag="static_eval", node=_cp_path(node), cls=node.ntype,
                keys=ctx.examined(node, charged),
            )
            leaf_value = ctx.problem.game.evaluate(node.position)
            yield from _eval_store_parallel(ctx, node, leaf_value, stats, pid)
        yield from _tt_store_leaf(ctx, node, leaf_value, stats, pid)
        yield from _finish_node(ctx, node, stats, pid, value=leaf_value)
        return

    pushes: list[tuple[str, PNode]] = []
    yield Acquire(ctx.tree_lock)
    yield Compute(cm.bookkeeping, tag="bookkeeping", node=_cp_path(node), cls=node.ntype)
    ctx.expand_children(node, pushes)
    yield Release(ctx.tree_lock)
    yield from _push_all(ctx, pushes, pid)


def _charge_serial(
    ctx: _Context, node: PNode, sub: SearchStats
) -> Generator[Op, None, bool]:
    """Charge a serial search's time (``sub.cost``) in abandonable chunks.

    Yields chunks of at most ``chunk_units``; between chunks the worker
    re-checks the live tree — under the tree lock, since other workers
    mutate ancestor state under it — and abandons the remainder if the
    subtree is now moot.  Returns via StopIteration-value whether the
    work survived.  The subtree's primitive weights
    (:func:`_serial_parts`) and, when traced, its examined positions ride
    on every chunk, so critical-path attribution and the loss split can
    divide the subtree's mixed cost.
    """
    cfg = ctx.config
    npath = _cp_path(node)
    parts = _serial_parts(ctx.cost_model, sub)
    keys = tuple(sub.trace) if sub.trace is not None else ()
    charged = 0.0
    while charged < sub.cost:
        chunk = min(cfg.chunk_units, sub.cost - charged)
        yield Compute(chunk, tag="serial", node=npath, cls=node.ntype, parts=parts, keys=keys)
        charged += chunk
        if charged < sub.cost:
            yield Acquire(ctx.tree_lock)
            ctx._note(node, READ)
            moot = node.done or ctx.has_finished_ancestor(node) or ctx.is_cut_off(node)
            if moot:
                ctx._bump("serial_aborts")
            yield Release(ctx.tree_lock)
            if moot:
                return False
    return True


def _serial_evaluate(
    ctx: _Context, node: PNode, stats: SearchStats, window: tuple[float, float], pid: int = 0
) -> Generator[Op, None, None]:
    """Search the whole subtree under ``node`` with serial ER."""
    alpha, beta = window
    yield Acquire(ctx.tree_lock)
    ctx._note(node, READ)
    moot = node.done  # finished concurrently
    if not moot:
        ctx._bump("serial_searches")
    yield Release(ctx.tree_lock)
    if moot:
        return
    sub = subproblem(ctx.problem, node.position, node.ply)
    substats = ctx.new_stats()
    # The serial search probes and stores through this worker's view; its
    # windows are pinned for the whole subtree, so every store classifies
    # soundly (serial_er module docstring).  Subtree keys match parallel
    # keys because RootedGame forwards hash_key (and batch_eval) to the
    # base game — the evaluator's cache entries are shared either way.
    result = er_search(
        sub, alpha, beta, cost_model=ctx.cost_model, stats=substats,
        table=_tt_view(ctx, pid), evaluator=ctx.evaluator_for(pid, sub.game),
    )
    stats.merge(substats)
    survived = yield from _charge_serial(ctx, node, substats)
    yield from _finish_node(
        ctx,
        node,
        stats,
        pid,
        value=result.value if survived else None,
        refute_if_cut=not survived,
    )


def _serial_refute_remaining(
    ctx: _Context, node: PNode, stats: SearchStats, window: tuple[float, float], pid: int = 0
) -> Generator[Op, None, None]:
    """Serially refute children[next_child:] of an r-node at serial depth.

    This happens when an undecided node whose first child was already
    evaluated is converted to an r-node at the serial boundary: the
    remaining children are searched one by one with the tightening bound,
    exactly as serial ER's Refute_rest would.
    """
    beta = window[1]
    yield Acquire(ctx.tree_lock)
    value, start, settled = ctx.refute_plan(node, window)
    moot = node.done  # finished concurrently (e.g. cut off by a late combine)
    yield Release(ctx.tree_lock)
    if moot:
        return
    if settled:
        yield from _finish_node(ctx, node, stats, pid, value=value)
        return
    assert node.child_positions is not None
    for index in range(start, node.n_children):
        sub = subproblem(ctx.problem, node.child_positions[index], node.ply + 1)
        substats = ctx.new_stats()
        result = er_search(
            sub, -beta, -value, cost_model=ctx.cost_model, stats=substats,
            table=_tt_view(ctx, pid), evaluator=ctx.evaluator_for(pid, sub.game),
        )
        stats.merge(substats)
        survived = yield from _charge_serial(ctx, node, substats)
        yield Acquire(ctx.tree_lock)
        ctx._bump("serial_searches")
        if survived:
            ctx._note(node, WRITE)
            node.next_child = index + 1
        yield Release(ctx.tree_lock)
        if not survived:
            break
        if -result.value > value:
            value = -result.value
        if value >= beta:
            stats.on_cutoff()
            break
    yield from _finish_node(ctx, node, stats, pid, value=value)


def parallel_er(
    problem: SearchProblem,
    n_processors: int,
    *,
    config: ERConfig = ERConfig(),
    cost_model: CostModel = DEFAULT_COST_MODEL,
    trace: bool = False,
    record_timeline: bool = False,
    tt: Optional[AnyTT] = None,
    eval_cache: Optional[AnyTT] = None,
    batch_eval: bool = False,
) -> ParallelResult:
    """Run parallel ER on ``n_processors`` simulated processors.

    Args:
        problem: the game and horizon to search.
        n_processors: simulated processor count (the paper sweeps 1–16).
        config: algorithm tunables; the default enables all three
            speculative mechanisms, like the paper's implementation.
        cost_model: operation costs; must match the serial baseline's when
            computing speedups.
        trace: log every examined position and its cost (enables the loss
            analysis of :mod:`repro.analysis.losses`, at some memory cost).
        record_timeline: record per-processor (kind, start, end) schedule
            intervals for :func:`repro.analysis.gantt.render_gantt`.
        tt: optional shared or per-worker transposition table
            (:func:`repro.cache.make_tt`); a shared table passed across
            successive calls carries results between runs, which is where
            the node savings come from on transposition-free random trees.
        eval_cache: optional Zobrist-keyed static-value cache, an
            eval-kind store (:func:`repro.cache.make_eval_cache`);
            parallel-level leaves probe/store it through simulator ops,
            serial subtrees through an :class:`~repro.eval.Evaluator`.
            Implies batched misses.
        batch_eval: batch frontier evaluations in serial subtrees even
            without a cache (``batch_eval_base``/``per_leaf`` charging).

    Returns:
        A :class:`~repro.parallel.base.ParallelResult` whose ``value``
        equals the serial root value (asserted across the test suite).
    """
    if n_processors < 1:
        raise SearchError("need at least one processor")
    p = _probe.CURRENT
    bus = p.bus if p is not None else None
    prev_clock = None
    if bus is not None:
        # Setup emits telemetry too (the root push lands in the heap
        # before the engine installs its clock); pin simulated time zero
        # and task -1 so every setup event is deterministic rather than
        # stamped with a wall clock and an OS thread id.
        prev_clock = bus.use_clock(lambda: 0.0)
        bus.task = -1
    try:
        ctx = _Context(
            problem, cost_model, config, trace, n_processors=n_processors,
            tt=tt, eval_cache=eval_cache, batch_eval=batch_eval,
        )
        worker_stats = [ctx.new_stats() for _ in range(n_processors)]
        workers = [_worker(ctx, worker_stats[i], pid=i) for i in range(n_processors)]
        report = Engine(
            workers, max_events=config.max_events, record_timeline=record_timeline
        ).run()
    finally:
        if bus is not None:
            bus.use_clock(prev_clock)
            bus.task = None
    ctx.release()
    if not ctx.done:
        raise SimulationError("parallel ER finished without combining the root")
    merged = ctx.new_stats()
    for ws in worker_stats:
        merged.merge(ws)
    return ParallelResult(
        value=ctx.root.value,
        n_processors=n_processors,
        report=report,
        stats=merged,
        algorithm="er",
        extras=_extras_with_tt(ctx),
    )
