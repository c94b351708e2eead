"""Synthetic random game trees (Section 7 of the paper).

Three families are provided:

* :class:`RandomGameTree` — the paper's model: a complete d-ary tree of
  fixed height whose leaves carry iid uniform values.  Interior static
  values are independent noise, so move ordering is uninformative — the
  regime in which the paper reports ER's best efficiency (Figure 11).

* :class:`IncrementalGameTree` — an "incremental" model in which a node's
  value is an accumulated sum of edge increments, so the static evaluator
  is informative and trees are *strongly ordered* in Marsland's sense
  (Section 4.4).  Used for the pv-splitting and ordering-quality ablations.

* :class:`SyntheticOrderedTree` — a tree whose exact negmax value is fixed
  by construction and whose best child can be pinned to a chosen position.
  With ``best_child='first'`` the tree is perfectly best-first ordered and
  alpha-beta visits exactly the Knuth–Moore minimal tree, which the test
  suite checks against the closed-form leaf count of Section 2.2.

All three are lazy: positions are node paths, and every random quantity
is derived from a splittable hash of the path (:func:`path_hash`).  A
position made by ``children`` links to its parent and caches the running
hash of the streams read at every node (leaf value, interior value,
transposition key), so evaluating it costs one SplitMix64 step from its
parent's state, and children cut off before they are evaluated cost no
hashing at all.  Streams read once per node (incremental scores, ordered
tree draws) run one fold along the path.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..errors import GameError
from . import _numpy
from .base import Path
from ._hashing import _GOLDEN, _MIX1, _MIX2, path_hash, splitmix64, uniform_int

#: Hash stream reserved for transposition keys (streams 0-7 carry leaf
#: values, ordering noise, and tree-shape draws).
_KEY_STREAM = 9


def _splitmix64_arrays(np: Any, state: Any) -> Any:
    """SplitMix64 over a uint64 array; wrap-around is the scalar's mask."""
    z = state + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hash_fold(np: Any, h: Any, column: Any) -> Any:
    """One path element folded into the running hash (vector form of the
    ``h = splitmix64(h ^ (index + 1))`` step of :func:`path_hash`)."""
    return _splitmix64_arrays(np, h ^ (column + np.uint64(1)))


def _hash_start(np: Any, seed: int, stream: int, n: int) -> Any:
    """Stream-initial hash, broadcast: ``path_hash(seed, (), stream)``."""
    return np.full(n, path_hash(seed, (), stream), dtype=np.uint64)


def _group_by_length(positions: Sequence["TreePosition"]) -> dict[int, list[int]]:
    """Row indices grouped by path length — hash chains are length-bound."""
    groups: dict[int, list[int]] = {}
    for row, position in enumerate(positions):
        groups.setdefault(len(position.path), []).append(row)
    return groups


def _path_matrix(
    np: Any, positions: Sequence["TreePosition"], rows: list[int], length: int
) -> Any:
    return np.array(
        [positions[row].path for row in rows], dtype=np.uint64
    ).reshape(len(rows), length)


#: The streams a position carries fold state for, and the slot holding
#: each: leaf values, interior values, and transposition keys.
_STATE_SLOTS = {0: "_leaf", 1: "_inner", _KEY_STREAM: "_key"}


class TreePosition:
    """A position in a synthetic tree: its path from the root.

    Equality and ``hash()`` look at ``path`` alone, and a pickle carries
    ``path`` alone.  A position made by ``children`` also links to its
    parent, so :meth:`fold` can extend the parent's cached hash by one
    SplitMix64 step instead of re-folding the whole path.
    """

    __slots__ = ("path", "_parent", "_seed", "_leaf", "_inner", "_key")

    path: Path
    _parent: Optional["TreePosition"]
    # Fold states belong to one seed: a position built by one tree may be
    # evaluated by another.  The state slots are read only while ``_seed``
    # matches, and they are reset before ``_seed`` is set.
    _seed: Optional[int]
    _leaf: Optional[int]
    _inner: Optional[int]
    _key: Optional[int]

    def __init__(self, path: Path, parent: Optional["TreePosition"] = None):
        self.path = path
        self._parent = parent
        self._seed = None

    @property
    def ply(self) -> int:
        return len(self.path)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TreePosition):
            return self.path == other.path
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path,))

    def __repr__(self) -> str:
        return f"TreePosition(path={self.path!r})"

    def __reduce__(self) -> tuple[type, tuple[Path]]:
        return (TreePosition, (self.path,))

    def fold(self, seed: int, stream: int) -> int:
        """``path_hash(seed, self.path, stream)`` for a carried stream.

        One SplitMix64 step from the parent's state, which is computed
        the same way and cached; a position with no parent falls back to
        :func:`path_hash`.
        """
        slot = _STATE_SLOTS[stream]
        if self._seed != seed:
            self._leaf = self._inner = self._key = None
            self._seed = seed
        else:
            h = getattr(self, slot)
            if h is not None:
                return h
        parent = self._parent
        if parent is None:
            h = path_hash(seed, self.path, stream)
        else:
            h = splitmix64(parent.fold(seed, stream) ^ (self.path[-1] + 1))
        setattr(self, slot, h)
        return h


class _PathTree:
    """Shape and keys shared by the synthetic trees: a complete
    ``degree``-ary tree of ``height`` plies whose positions are paths."""

    degree: int
    height: int
    seed: int

    def root(self) -> TreePosition:
        return TreePosition(())

    def children(self, position: TreePosition) -> Sequence[TreePosition]:
        path = position.path
        if len(path) >= self.height:
            return ()
        return tuple([TreePosition(path + (i,), position) for i in range(self.degree)])

    def hash_key(self, position: TreePosition) -> int:
        """Transposition key: synthetic positions *are* their paths, so the
        key is a path hash salted with the tree's seed (two different
        trees must never share keys in a table that outlives one run)."""
        return position.fold(self.seed, _KEY_STREAM)


class RandomGameTree(_PathTree):
    """Complete ``degree``-ary tree of ``height`` plies, iid uniform leaves.

    Args:
        degree: number of children of every interior node (paper: 4 or 8).
        height: leaf depth in plies (paper: 7, 10, or 11).
        seed: stream seed; equal seeds give identical trees.
        value_range: leaf values are uniform on ``[-value_range, value_range]``.
    """

    def __init__(self, degree: int, height: int, seed: int = 0, value_range: int = 10_000):
        if degree < 1:
            raise GameError("degree must be at least 1")
        if height < 0:
            raise GameError("height must be non-negative")
        if value_range < 1:
            raise GameError("value_range must be positive")
        self.degree = degree
        self.height = height
        self.seed = seed
        self.value_range = value_range

    def evaluate(self, position: TreePosition) -> float:
        # Leaves get the paper's iid uniform values; interior nodes get an
        # independent draw, modelling a completely uninformative evaluator.
        # ``uniform_int`` over the carried fold state.
        stream = 0 if len(position.path) >= self.height else 1
        span = 2 * self.value_range + 1
        return float(position.fold(self.seed, stream) % span - self.value_range)

    def batch_eval(self, positions: Sequence[TreePosition]) -> list[float]:
        """Vectorized evaluation of many positions (numpy fast path).

        Element-wise identical to :meth:`evaluate`: positions are grouped
        by path length (the hash chain is length-bound), the SplitMix64
        fold runs column-wise over uint64 path matrices, and every value
        is an exact small integer in float64.
        """
        if not (_numpy.HAVE_NUMPY and len(positions) > 0):
            return [self.evaluate(position) for position in positions]
        np = _numpy.np
        out = [0.0] * len(positions)
        span = 2 * self.value_range + 1
        for length, rows in _group_by_length(positions).items():
            stream = 0 if length >= self.height else 1
            h = _hash_start(np, self.seed, stream, len(rows))
            matrix = _path_matrix(np, positions, rows, length)
            for column in range(length):
                h = _hash_fold(np, h, matrix[:, column])
            values = (h % np.uint64(span)).astype(np.int64) - self.value_range
            for i, row in enumerate(rows):
                out[row] = float(values[i])
        return out

    def leaf_count(self) -> int:
        """Total leaves of the full tree (``degree ** height``)."""
        return self.degree**self.height


class IncrementalGameTree(_PathTree):
    """Strongly ordered random tree: values accumulate along edges.

    Each edge carries a uniform increment; a node's *true score* is the
    negamax-alternating sum of increments on its path, and its static
    value is that score plus bounded noise.  With ``noise=0`` the static
    evaluator ranks children almost perfectly; raising ``noise`` degrades
    ordering quality continuously, which the ordering ablation sweeps.
    """

    def __init__(
        self,
        degree: int,
        height: int,
        seed: int = 0,
        increment_range: int = 100,
        noise: float = 0.25,
    ):
        if degree < 1:
            raise GameError("degree must be at least 1")
        if height < 0:
            raise GameError("height must be non-negative")
        if increment_range < 1:
            raise GameError("increment_range must be positive")
        if noise < 0:
            raise GameError("noise must be non-negative")
        self.degree = degree
        self.height = height
        self.seed = seed
        self.increment_range = increment_range
        self.noise = noise

    def _score(self, path: Path) -> int:
        """True accumulated score of a node, side-to-move point of view."""
        # One running stream-0 fold: after ``index`` it is the hash of
        # that prefix, whose uniform draw is the prefix's edge increment.
        span = 2 * self.increment_range + 1
        score = 0
        h = path_hash(self.seed, ())
        for index in path:
            h = splitmix64(h ^ (index + 1))
            score = -score + h % span - self.increment_range
        return score

    def evaluate(self, position: TreePosition) -> float:
        score = self._score(position.path)
        if position.ply >= self.height or self.noise == 0:
            noise = 0
        else:
            bound = max(1, int(self.increment_range * self.noise))
            noise = uniform_int(self.seed, position.path, -bound, bound, stream=2)
        return float(score + noise)

    def batch_eval(self, positions: Sequence[TreePosition]) -> list[float]:
        """Vectorized evaluation of many positions (numpy fast path).

        Element-wise identical to :meth:`evaluate`: the running hash after
        folding columns ``0..ply-1`` *is* ``path_hash`` of that prefix, so
        the negamax-alternating increment sum of :meth:`_score` runs as a
        column-wise recurrence over each path-length group.
        """
        if not (_numpy.HAVE_NUMPY and len(positions) > 0):
            return [self.evaluate(position) for position in positions]
        np = _numpy.np
        out = [0.0] * len(positions)
        inc_span = 2 * self.increment_range + 1
        for length, rows in _group_by_length(positions).items():
            n = len(rows)
            matrix = _path_matrix(np, positions, rows, length)
            score = np.zeros(n, dtype=np.int64)
            h = _hash_start(np, self.seed, 0, n)
            for column in range(length):
                h = _hash_fold(np, h, matrix[:, column])
                inc = (h % np.uint64(inc_span)).astype(np.int64) - self.increment_range
                score = -score + inc
            if length >= self.height or self.noise == 0:
                values = score
            else:
                bound = max(1, int(self.increment_range * self.noise))
                h2 = _hash_start(np, self.seed, 2, n)
                for column in range(length):
                    h2 = _hash_fold(np, h2, matrix[:, column])
                noise = (h2 % np.uint64(2 * bound + 1)).astype(np.int64) - bound
                values = score + noise
            for i, row in enumerate(rows):
                out[row] = float(values[i])
        return out


class SyntheticOrderedTree(_PathTree):
    """Tree with a predetermined negmax value at every node.

    Construction (top-down, derived lazily from path hashes): the root is
    assigned a value ``v``.  Exactly one child — the *best* child — is
    assigned value ``-v`` so that ``max(-child)`` recovers ``v``; every
    other child is assigned ``-v + delta`` with ``delta >= 1``, making it
    strictly worse for the parent.  Leaves evaluate to their predetermined
    value, so the whole tree's negmax value equals the root's assignment
    exactly — a ground truth for correctness tests at any size.

    Args:
        best_child: ``'first'`` produces a perfectly best-first-ordered
            tree (alpha-beta visits exactly the minimal tree);
            ``'last'`` produces the pathological worst-first order;
            ``'random'`` scatters the best child uniformly.
    """

    _PLACEMENTS = ("first", "last", "random")

    def __init__(
        self,
        degree: int,
        height: int,
        seed: int = 0,
        root_value: int | None = None,
        delta_range: int = 50,
        best_child: str = "first",
    ):
        if degree < 1:
            raise GameError("degree must be at least 1")
        if height < 0:
            raise GameError("height must be non-negative")
        if delta_range < 1:
            raise GameError("delta_range must be positive")
        if best_child not in self._PLACEMENTS:
            raise GameError(f"best_child must be one of {self._PLACEMENTS}")
        self.degree = degree
        self.height = height
        self.seed = seed
        self.delta_range = delta_range
        self.best_child = best_child
        if root_value is None:
            root_value = uniform_int(seed, (), -1000, 1000, stream=7)
        self.root_value = root_value

    def assigned_value(self, path: Path) -> int:
        """The negmax value this construction assigns to a node."""
        # Running folds, as in :meth:`batch_eval`: the best-child draw
        # (stream 3) hashes the prefix before ``index``, the delta draw
        # (stream 4) the prefix ending in it.
        value = self.root_value
        h3 = path_hash(self.seed, (), stream=3)
        h4 = path_hash(self.seed, (), stream=4)
        for index in path:
            if self.best_child == "first":
                best = 0
            elif self.best_child == "last":
                best = self.degree - 1
            else:
                best = h3 % self.degree
            h3 = splitmix64(h3 ^ (index + 1))
            h4 = splitmix64(h4 ^ (index + 1))
            value = -value if index == best else -value + h4 % self.delta_range + 1
        return value

    def evaluate(self, position: TreePosition) -> float:
        return float(self.assigned_value(position.path))

    def batch_eval(self, positions: Sequence[TreePosition]) -> list[float]:
        """Vectorized evaluation of many positions (numpy fast path).

        Element-wise identical to :meth:`evaluate`: the best-child draw
        (stream 3) hashes each *prefix*, so it is read before folding the
        column; the delta draw (stream 4) hashes the prefix *plus* the
        column, so it is read after.
        """
        if not (_numpy.HAVE_NUMPY and len(positions) > 0):
            return [self.evaluate(position) for position in positions]
        np = _numpy.np
        out = [0.0] * len(positions)
        for length, rows in _group_by_length(positions).items():
            n = len(rows)
            matrix = _path_matrix(np, positions, rows, length)
            value = np.full(n, self.root_value, dtype=np.int64)
            h3 = _hash_start(np, self.seed, 3, n)
            h4 = _hash_start(np, self.seed, 4, n)
            for column in range(length):
                indices = matrix[:, column].astype(np.int64)
                if self.best_child == "first":
                    best = np.zeros(n, dtype=np.int64)
                elif self.best_child == "last":
                    best = np.full(n, self.degree - 1, dtype=np.int64)
                else:
                    best = (h3 % np.uint64(self.degree)).astype(np.int64)
                h3 = _hash_fold(np, h3, matrix[:, column])
                h4 = _hash_fold(np, h4, matrix[:, column])
                delta = (h4 % np.uint64(self.delta_range)).astype(np.int64) + 1
                value = np.where(indices == best, -value, -value + delta)
            for i, row in enumerate(rows):
                out[row] = float(value[i])
        return out
