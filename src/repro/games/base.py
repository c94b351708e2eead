"""Game abstraction consumed by every search algorithm in this package.

A *game* supplies positions, successor generation, and a static evaluator
(Section 2 of the paper).  Search algorithms never inspect position
internals; they identify nodes by their *path* from the root (a tuple of
child indices), which makes node identity game-independent and lets the
loss analysis (:mod:`repro.analysis.losses`) compare node sets across
algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, Sequence, runtime_checkable

from ..errors import SearchError
from ._hashing import splitmix64

#: A position is any hashable object a game defines.  Typed as ``Any``
#: rather than ``Hashable`` as a deliberate gradual-typing seam: each
#: game implements :class:`Game` with its own concrete position class,
#: and search code treats positions as opaque tokens — a union of every
#: game's position type would buy no safety and force casts at each
#: ``children``/``evaluate`` call site.
Position = Any

#: A node's identity: the sequence of child indices from the root.
Path = tuple[int, ...]

#: Value assigned to unexplored nodes; never attainable by an evaluator.
NEG_INF = float("-inf")
POS_INF = float("inf")


@runtime_checkable
class Game(Protocol):
    """Protocol every game substrate implements.

    All values follow the *negmax* convention of Knuth & Moore: the value
    of a position is from the point of view of the player to move, and a
    position's value is the maximum of the negated values of its children.
    """

    def root(self) -> Position:
        """Return the initial position to search from."""
        ...

    def children(self, position: Position) -> Sequence[Position]:
        """Return the successor positions, in the game's natural move order.

        An empty sequence means the game is over at ``position``.
        """
        ...

    def evaluate(self, position: Position) -> float:
        """Statically evaluate ``position`` for the player to move."""
        ...


def hash_key(game: Game, position: Position) -> int:
    """64-bit transposition key for ``position`` — the cache seam.

    Games that define a ``hash_key`` method supply their own keys (a
    full Zobrist rehash of the board for Othello and Connect Four,
    SplitMix64 fold state carried from the parent for the synthetic
    trees); any other
    game falls back to mixing Python's structural hash through
    SplitMix64.  The fallback is deterministic across worker *processes*
    only for positions built from integers — every game in this package
    qualifies — because CPython salts ``str``/``bytes`` hashing per
    process.
    """
    method = getattr(game, "hash_key", None)
    if method is not None:
        return int(method(position))
    return splitmix64(hash(position) & ((1 << 64) - 1))


def batch_eval(game: Game, positions: Sequence[Position]) -> list[float]:
    """Statically evaluate many positions at once — the batching seam.

    Games that define a ``batch_eval`` method supply a vectorized
    evaluator (bitboard arrays under numpy for Othello and Connect Four);
    any other game falls back to a scalar loop.  Either way the result is
    element-wise identical to calling :meth:`Game.evaluate` on each
    position — pinned bit-for-bit by the differential battery in
    ``tests/test_eval_differential.py`` — so enabling batching can never
    change a search's value, only its cost accounting.
    """
    method = getattr(game, "batch_eval", None)
    if method is not None:
        return list(method(positions))
    return [game.evaluate(position) for position in positions]


@dataclass(frozen=True)
class SearchProblem:
    """A game bound to a search horizon — the unit every search consumes.

    Attributes:
        game: the underlying game.
        depth: maximum ply depth; nodes at this depth are leaves.
        sort_below_root: plies (from the root, exclusive) at which children
            are ordered by static value before search.  The paper sorts
            Othello children above ply five and never sorts below
            (Section 7); a value of 0 disables ordering entirely.
    """

    game: Game
    depth: int
    sort_below_root: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise SearchError("search depth must be non-negative")
        if self.sort_below_root < 0:
            raise SearchError("sort_below_root must be non-negative")

    def is_horizon(self, ply: int) -> bool:
        """True when ``ply`` is at or beyond the depth horizon."""
        return ply >= self.depth

    def should_sort(self, ply: int) -> bool:
        """True when children generated at ``ply`` should be pre-ordered."""
        return ply < self.sort_below_root


@dataclass
class Line:
    """A principal variation: the move path search believes is optimal."""

    moves: list[int] = field(default_factory=list)

    def prepend(self, move: int) -> "Line":
        return Line([move, *self.moves])

    def __iter__(self) -> Iterator[int]:
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)


class RootedGame:
    """A view of ``game`` re-rooted at an arbitrary position.

    Parallel algorithms hand whole subtrees to serial searches (the
    paper's *serial depth*, Table 3); this wrapper lets those searches
    run unchanged on the subtree.
    """

    def __init__(self, game: Game, root_position: Position) -> None:
        self._game = game
        self._root = root_position

    def root(self) -> Position:
        return self._root

    def children(self, position: Position) -> Sequence[Position]:
        return self._game.children(position)

    def evaluate(self, position: Position) -> float:
        return self._game.evaluate(position)

    def hash_key(self, position: Position) -> int:
        """Forward to the underlying game so a subtree search rooted at an
        arbitrary position produces the same keys as the full search —
        required for the serial-depth cutover to share one table with the
        parallel layer."""
        return hash_key(self._game, position)

    def batch_eval(self, positions: Sequence[Position]) -> list[float]:
        """Forward to the underlying game so serial subtree searches keep
        the vectorized fast path (the serial-depth cutover is where the
        horizon frontiers — hence the batches — actually live)."""
        return batch_eval(self._game, positions)


def subproblem(problem: SearchProblem, position: Position, ply: int) -> SearchProblem:
    """The search problem for the subtree rooted at ``position`` at ``ply``."""
    if ply > problem.depth:
        raise SearchError("subproblem ply exceeds the search horizon")
    return SearchProblem(
        game=RootedGame(problem.game, position),
        depth=problem.depth - ply,
        sort_below_root=max(0, problem.sort_below_root - ply),
    )


def follow_path(game: Game, path: Path) -> Position:
    """Resolve a node path to its concrete position.

    Raises:
        SearchError: if the path indexes a nonexistent child.
    """
    position = game.root()
    for index in path:
        successors = game.children(position)
        if index >= len(successors):
            raise SearchError(f"path {path!r} leaves the tree at index {index}")
        position = successors[index]
    return position
