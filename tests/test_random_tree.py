"""Unit tests for the synthetic tree generators."""

import hashlib
import pickle
import random
import sys
import threading
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GameError
from repro.games._hashing import path_hash, uniform_int
from repro.games.base import SearchProblem
from repro.games.random_tree import (
    IncrementalGameTree,
    RandomGameTree,
    SyntheticOrderedTree,
    TreePosition,
)
from repro.search.alphabeta import alphabeta
from repro.search.minimal_tree import minimal_leaf_count_formula
from repro.search.negamax import negamax


class TestRandomGameTree:
    def test_shape(self):
        tree = RandomGameTree(3, 2, seed=0)
        root = tree.root()
        kids = tree.children(root)
        assert len(kids) == 3
        grand = tree.children(kids[0])
        assert len(grand) == 3
        assert tree.children(grand[0]) == ()

    def test_leaf_count(self):
        assert RandomGameTree(4, 5).leaf_count() == 4**5

    def test_determinism_across_instances(self):
        a, b = RandomGameTree(3, 4, seed=7), RandomGameTree(3, 4, seed=7)
        leaf = a.children(a.children(a.root())[1])[2]
        # descend to an actual leaf
        pos = a.root()
        for _ in range(4):
            pos = a.children(pos)[1]
        assert a.evaluate(pos) == b.evaluate(pos)

    def test_seed_changes_values(self):
        a, b = RandomGameTree(2, 3, seed=1), RandomGameTree(2, 3, seed=2)
        pos = TreePosition((0, 1, 0))
        assert a.evaluate(pos) != b.evaluate(pos)

    @given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 50))
    def test_leaf_values_in_range(self, degree, height, seed):
        tree = RandomGameTree(degree, height, seed=seed, value_range=100)
        pos = tree.root()
        for _ in range(height):
            pos = tree.children(pos)[0]
        assert -100 <= tree.evaluate(pos) <= 100

    @pytest.mark.parametrize(
        "kwargs", [dict(degree=0, height=2), dict(degree=2, height=-1), dict(degree=2, height=2, value_range=0)]
    )
    def test_validation(self, kwargs):
        with pytest.raises(GameError):
            RandomGameTree(**kwargs)


@dataclass(frozen=True)
class _DataclassPosition:
    """The semantics ``TreePosition`` had as a frozen dataclass."""

    path: tuple


def _families(degree, height, seed):
    return (
        RandomGameTree(degree, height, seed=seed),
        IncrementalGameTree(degree, height, seed=seed),
        SyntheticOrderedTree(degree, height, seed=seed, best_child="random"),
    )


@st.composite
def _tree_paths(draw):
    degree = draw(st.integers(1, 5))
    height = draw(st.integers(0, 7))
    path = tuple(draw(st.lists(st.integers(0, degree - 1), max_size=height)))
    return degree, height, path


class TestTreePosition:
    @given(_tree_paths(), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_values_do_not_depend_on_how_a_position_was_made(self, shape, seed, other_seed):
        degree, height, path = shape
        trees = zip(_families(degree, height, seed), _families(degree, height, other_seed))
        for tree, other in trees:
            reached = tree.root()
            for index in path:
                reached = tree.children(reached)[index]
            first_by_other = other.root()
            for index in path:
                first_by_other = other.children(first_by_other)[index]
            other.evaluate(first_by_other)
            other.hash_key(first_by_other)
            fresh = TreePosition(path)
            unpickled = pickle.loads(pickle.dumps(reached))
            expected = (tree.evaluate(fresh), tree.hash_key(fresh))
            assert expected[1] == path_hash(seed, path, stream=9)
            for position in (reached, unpickled, first_by_other):
                assert position.path == path
                assert (tree.evaluate(position), tree.hash_key(position)) == expected

    @given(_tree_paths(), st.integers(0, 50))
    def test_equality_and_hash_match_the_dataclass(self, shape, seed):
        degree, height, path = shape
        tree = RandomGameTree(degree, height, seed=seed)
        reached = tree.root()
        for index in path:
            reached = tree.children(reached)[index]
        tree.evaluate(reached)
        assert reached == TreePosition(path)
        assert hash(reached) == hash(TreePosition(path)) == hash(_DataclassPosition(path))
        assert reached != TreePosition(path + (0,))
        assert reached != path and reached != _DataclassPosition(path)
        assert reached.ply == len(path)

    def test_pickle_carries_the_path_alone(self):
        # A position with ``depth`` ancestors and cached hashes pickles to
        # the same bytes as a parentless one: task payloads hold paths only.
        tree = RandomGameTree(3, 12, seed=5)
        for depth in range(13):
            deep = tree.root()
            for _ in range(depth):
                deep = tree.children(deep)[2]
            tree.evaluate(deep)
            tree.hash_key(deep)
            assert pickle.dumps(deep) == pickle.dumps(TreePosition(deep.path))

    def test_threads_sharing_positions_read_the_definition(self):
        # Fold states are cached in positions that threaded searches
        # share; a torn update would leave a wrong state to be read.
        tree = RandomGameTree(3, 6, seed=11)
        frontier = [tree.root()]
        for _ in range(6):
            frontier = [kid for position in frontier for kid in tree.children(position)]
        expected = {
            p.path: (
                uniform_int(11, p.path, -10_000, 10_000),
                path_hash(11, p.path, stream=9),
            )
            for p in frontier
        }
        results = []

        def worker(order_seed):
            order = random.Random(order_seed).sample(frontier, len(frontier))
            results.append({p.path: (tree.evaluate(p), tree.hash_key(p)) for p in order})

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(threads)


class TestIncrementalGameTree:
    def test_interior_static_correlates_with_negamax(self):
        """With zero noise, static ordering should often match true order."""
        tree = IncrementalGameTree(3, 4, seed=3, noise=0.0)
        problem = SearchProblem(tree, depth=4)
        root_kids = tree.children(tree.root())
        static_order = sorted(range(3), key=lambda i: tree.evaluate(root_kids[i]))

        def true_value(pos, remaining):
            kids = tree.children(pos) if remaining else ()
            if not kids:
                return tree.evaluate(pos)
            return max(-true_value(k, remaining - 1) for k in kids)

        true_order = sorted(range(3), key=lambda i: true_value(root_kids[i], 3))
        # The statically best child should be among the top two truly best.
        assert static_order[0] in true_order[:2]

    def test_ordering_quality_improves_alphabeta(self):
        """Sorted search on a strongly ordered tree prunes more."""
        tree = IncrementalGameTree(4, 6, seed=5, noise=0.1)
        unsorted = alphabeta(SearchProblem(tree, depth=6))
        sorted_ = alphabeta(SearchProblem(tree, depth=6, sort_below_root=6))
        assert sorted_.value == unsorted.value
        assert sorted_.stats.leaf_evals < unsorted.stats.leaf_evals

    def test_validation(self):
        with pytest.raises(GameError):
            IncrementalGameTree(2, 3, noise=-0.1)


class TestSyntheticOrderedTree:
    @given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 20))
    def test_negamax_equals_assigned_root_value(self, degree, height, seed):
        tree = SyntheticOrderedTree(degree, height, seed=seed)
        problem = SearchProblem(tree, depth=height)
        assert negamax(problem).value == float(tree.root_value)

    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 10))
    def test_random_placement_still_exact(self, degree, height, seed):
        tree = SyntheticOrderedTree(degree, height, seed=seed, best_child="random")
        problem = SearchProblem(tree, depth=height)
        assert negamax(problem).value == float(tree.root_value)

    def test_best_first_gives_minimal_tree(self):
        """On a perfectly ordered tree alpha-beta visits exactly the
        Knuth-Moore minimal tree (Section 2.2)."""
        for degree, height in ((2, 6), (3, 5), (4, 6), (5, 4)):
            tree = SyntheticOrderedTree(degree, height, seed=1)
            result = alphabeta(SearchProblem(tree, depth=height))
            assert result.stats.leaf_evals == minimal_leaf_count_formula(degree, height)

    def test_worst_first_visits_everything(self):
        tree = SyntheticOrderedTree(3, 4, seed=2, best_child="last")
        result = alphabeta(SearchProblem(tree, depth=4))
        best = alphabeta(SearchProblem(SyntheticOrderedTree(3, 4, seed=2), depth=4))
        assert result.stats.leaf_evals > best.stats.leaf_evals

    def test_invalid_placement(self):
        with pytest.raises(GameError):
            SyntheticOrderedTree(2, 2, best_child="middle")

    def test_assigned_value_consistency(self):
        """Every node's assigned value equals the negmax of its subtree."""
        tree = SyntheticOrderedTree(3, 3, seed=4)

        def nm(path):
            kids = tree.children(TreePosition(path))
            if not kids:
                return tree.evaluate(TreePosition(path))
            return max(-nm(k.path) for k in kids)

        for path in [(), (0,), (1,), (2, 0), (1, 2)]:
            assert nm(path) == tree.assigned_value(path)


def _golden_trees():
    for seed in (0, 7, 303):
        for degree, height in ((2, 9), (3, 6), (8, 7)):
            yield RandomGameTree(degree, height, seed=seed)
            yield IncrementalGameTree(degree, height, seed=seed)
            yield IncrementalGameTree(degree, height, seed=seed, noise=0.0)
            for placement in ("first", "last", "random"):
                yield SyntheticOrderedTree(degree, height, seed=seed, best_child=placement)


def walk_digest(walks_per_tree: int = 6, seed: int = 0x5EED) -> tuple[str, int]:
    """SHA-256 over seeded root-to-leaf walks of every synthetic tree family.

    Each visited node contributes its ``evaluate`` float bits (interior
    and leaf alike), its ``hash_key``, and then every child path in the
    order ``children`` yields them.  Returns the digest and the number of
    nodes visited.
    """
    rng = random.Random(seed)
    digest = hashlib.sha256()
    visited = 0
    for tree in _golden_trees():
        for _ in range(walks_per_tree):
            position = tree.root()
            while True:
                digest.update(tree.evaluate(position).hex().encode())
                digest.update(f"{tree.hash_key(position):x};".encode())
                kids = tree.children(position)
                for kid in kids:
                    digest.update(f"{kid.path};".encode())
                visited += 1
                if not kids:
                    break
                position = kids[rng.randrange(len(kids))]
    return digest.hexdigest(), visited


class TestGoldenValues:
    def test_walk_digest(self):
        # Absolute values: any change to the path hash, a stream number,
        # a value formula or child order changes the digest.
        assert walk_digest() == (
            "c4b8158d47365f887d3afb83bce3482011cec275812b4f2ae5df35b0f0f91748",
            2700,
        )
