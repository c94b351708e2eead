"""Transposition tables and a table-driven alpha-beta.

Real game-playing programs — including the Othello programs the paper's
substrate descends from — cache search results keyed by position so that
transpositions (the same position reached through different move orders)
are searched once.  This module provides:

* :class:`TranspositionTable` — a bounded map from position to a value
  with bound semantics (exact / lower / upper) and the depth it was
  searched to;
* :func:`alphabeta_tt` — alpha-beta with table probes, stores, and
  hash-move ordering;
* :func:`iterative_deepening` — the standard driver that repeatedly
  deepens, letting the table's hash moves order each iteration.

These are extensions beyond the paper's text (its experiments search
each tree once, cold), provided because any downstream user of a
game-tree-search library expects them; tests pin their exactness against
plain alpha-beta on transposing games (tic-tac-toe, Othello).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Protocol

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..errors import SearchError
from ..games.base import NEG_INF, POS_INF, Path, Position, SearchProblem
from .stats import SearchResult, SearchStats


class Bound(Enum):
    """What a stored value means relative to the search window."""

    EXACT = "exact"
    LOWER = "lower"  # value is a lower bound (search failed high)
    UPPER = "upper"  # value is an upper bound (search failed low)


@dataclass(frozen=True)
class TTEntry:
    """One transposition-table record."""

    value: float
    depth: int  # remaining depth the value was computed with
    bound: Bound
    best_move: Optional[int]  # child index that produced the value


class TTView(Protocol):
    """What a search needs from a keyed store: entries by Zobrist key.

    Satisfied by :class:`TranspositionTable`, every :mod:`repro.cache`
    store (transposition table or eval cache), and the per-worker views
    the parallel drivers hand to their serial subtrees.  Parameters are
    positional-only so implementations may name the key whatever fits
    their keying scheme.
    """

    def probe(self, key: int, /) -> Optional[TTEntry]: ...

    def store(self, key: int, entry: TTEntry, /) -> None: ...


def usable_value(
    entry: Optional[TTEntry], remaining: int, alpha: float, beta: float
) -> Optional[float]:
    """The value ``entry`` answers a search with, or ``None`` if it cannot.

    An entry answers a node with ``remaining`` plies to go when it was
    searched at least that deep and its bound decides the window
    ``(alpha, beta)``: EXACT always, LOWER when it fails high (``>=
    beta``), UPPER when it fails low (``<= alpha``).  Every backend's
    table probe gates on this one rule.
    """
    if entry is None or entry.depth < remaining:
        return None
    if (
        entry.bound is Bound.EXACT
        or (entry.bound is Bound.LOWER and entry.value >= beta)
        or (entry.bound is Bound.UPPER and entry.value <= alpha)
    ):
        return entry.value
    return None


#: How many least-recently-used entries the capacity-eviction scan
#: examines.  Bounds the cost of depth-preferred replacement: eviction
#: picks the *shallowest* entry in this window rather than blindly
#: dropping the LRU-oldest one (which may hold an expensive deep result).
EVICTION_SCAN = 8


class TranspositionTable:
    """Bounded position cache: LRU recency with depth-preferred eviction.

    Positions are used directly as keys (every game in this package has
    hashable positions); a production engine would use Zobrist keys, but
    the replacement and bound logic — the part that is easy to get wrong
    — is identical.  (:class:`repro.cache.SimStripedTT` stripes instances
    of this class by Zobrist key for the concurrent backends.)

    Replacement policy: an existing entry for the same key is kept when
    it is strictly deeper; on capacity overflow the victim is the
    shallowest entry among the ``EVICTION_SCAN`` least recently used —
    pure LRU eviction used to discard a depth-9 result to make room for
    a depth-0 leaf, which is exactly backwards for search caches.
    """

    def __init__(self, capacity: int = 1 << 18):
        if capacity < 1:
            raise SearchError("table capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Position, TTEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def probe(self, position: Position) -> Optional[TTEntry]:
        entry = self._entries.get(position)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(position)
        self.hits += 1
        return entry

    def store(self, position: Position, entry: TTEntry) -> None:
        existing = self._entries.get(position)
        if existing is not None and existing.depth > entry.depth:
            return  # keep the deeper result
        self._entries[position] = entry
        self._entries.move_to_end(position)
        self.stores += 1
        if len(self._entries) > self.capacity:
            # Depth-preferred eviction: scan the oldest EVICTION_SCAN
            # entries (the just-stored key is at the MRU end and is
            # skipped if the window reaches it) and drop the shallowest;
            # ties fall to the least recently used.
            victim = None
            victim_depth = 0
            for scanned, (key, candidate) in enumerate(self._entries.items()):
                if scanned >= EVICTION_SCAN and victim is not None:
                    break
                if key == position:
                    continue
                if victim is None or candidate.depth < victim_depth:
                    victim = key
                    victim_depth = candidate.depth
            self._entries.pop(victim)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


def alphabeta_tt(
    problem: SearchProblem,
    table: TranspositionTable,
    alpha: float = NEG_INF,
    beta: float = POS_INF,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Alpha-beta with transposition-table probes and hash-move ordering.

    Exactness: with an open window the root value equals negmax's; the
    table only ever substitutes values proven at **at least** the needed
    remaining depth with compatible bound semantics.
    """
    if stats is None:
        stats = SearchStats()
    if not alpha < beta:
        raise ValueError("alpha-beta window requires alpha < beta")
    value = _ab_tt(
        problem, table, problem.game.root(), (), 0, alpha, beta, cost_model, stats
    )
    return SearchResult(value=value, stats=stats)


def _ab_tt(
    problem: SearchProblem,
    table: TranspositionTable,
    position: Position,
    path: Path,
    ply: int,
    alpha: float,
    beta: float,
    cost_model: CostModel,
    stats: SearchStats,
) -> float:
    game = problem.game
    remaining = problem.depth - ply

    entry = table.probe(position)
    answer = usable_value(entry, remaining, alpha, beta)
    if answer is not None:
        return answer

    children = () if problem.is_horizon(ply) else game.children(position)
    if not children:
        stats.on_leaf(path, cost_model)
        value = game.evaluate(position)
        table.store(position, TTEntry(value, remaining, Bound.EXACT, None))
        return value

    stats.on_expand(path, len(children), cost_model)
    order = list(range(len(children)))
    if problem.should_sort(ply):
        stats.on_ordering(len(children), cost_model)
        static = [game.evaluate(child) for child in children]
        order.sort(key=static.__getitem__)
    # Hash move first: the best move from a previous (possibly shallower)
    # visit is the cheapest, strongest ordering signal available.
    if entry is not None and entry.best_move is not None and entry.best_move < len(children):
        order.remove(entry.best_move)
        order.insert(0, entry.best_move)

    best = NEG_INF
    best_move: Optional[int] = None
    original_alpha = alpha
    for index in order:
        child_value = _ab_tt(
            problem,
            table,
            children[index],
            path + (index,),
            ply + 1,
            -beta,
            -max(alpha, best),
            cost_model,
            stats,
        )
        if -child_value > best:
            best = -child_value
            best_move = index
        if best >= beta:
            stats.on_cutoff()
            table.store(position, TTEntry(best, remaining, Bound.LOWER, best_move))
            return best

    bound = Bound.EXACT if best > original_alpha else Bound.UPPER
    table.store(position, TTEntry(best, remaining, bound, best_move))
    return best


def iterative_deepening(
    problem: SearchProblem,
    *,
    table: Optional[TranspositionTable] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    stats: Optional[SearchStats] = None,
) -> SearchResult:
    """Deepen 1..depth with a shared table (hash moves order each pass).

    On strongly ordered games the total cost is frequently *below* a
    single cold full-depth search — the classic iterative-deepening
    paradox, asserted by the tests on Othello.
    """
    if table is None:
        table = TranspositionTable()
    if stats is None:
        stats = SearchStats()
    if problem.depth == 0:
        stats.on_leaf((), cost_model)
        return SearchResult(value=problem.game.evaluate(problem.game.root()), stats=stats)
    result: Optional[SearchResult] = None
    for depth in range(1, problem.depth + 1):
        iteration = SearchProblem(
            game=problem.game, depth=depth, sort_below_root=problem.sort_below_root
        )
        result = alphabeta_tt(iteration, table, cost_model=cost_model, stats=stats)
    assert result is not None
    return SearchResult(value=result.value, stats=stats)
