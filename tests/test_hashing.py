"""Unit tests for the counter-based path hashing."""

from hypothesis import given
from hypothesis import strategies as st
import pytest

from repro.games._hashing import path_hash, splitmix64, uniform_int
from repro.games.connect4 import ConnectFour

paths = st.lists(st.integers(min_value=0, max_value=63), max_size=8).map(tuple)


class TestSplitMix:
    def test_known_nonzero(self):
        assert splitmix64(0) != 0

    def test_is_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_output_in_64_bits(self, state):
        assert 0 <= splitmix64(state) < 2**64

    def test_avalanche_changes_many_bits(self):
        # Flipping one input bit should flip roughly half the output bits.
        a, b = splitmix64(42), splitmix64(43)
        flipped = (a ^ b).bit_count()
        assert 16 <= flipped <= 48


class TestPathHash:
    @given(paths, st.integers(min_value=0, max_value=1000))
    def test_deterministic(self, path, seed):
        assert path_hash(seed, path) == path_hash(seed, path)

    @given(paths)
    def test_seed_changes_hash(self, path):
        assert path_hash(1, path) != path_hash(2, path)

    @given(paths)
    def test_stream_changes_hash(self, path):
        assert path_hash(7, path, stream=0) != path_hash(7, path, stream=1)

    def test_sibling_paths_differ(self):
        assert path_hash(0, (0, 1)) != path_hash(0, (0, 2))

    def test_prefix_differs_from_extension(self):
        assert path_hash(0, (3,)) != path_hash(0, (3, 0))


class TestUniformInt:
    @given(paths, st.integers(-100, 100), st.integers(0, 200))
    def test_within_bounds(self, path, low, span):
        high = low + span
        value = uniform_int(0, path, low, high)
        assert low <= value <= high

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            uniform_int(0, (), 5, 4)

    def test_roughly_uniform(self):
        # Chi-square-free sanity check: all 8 buckets occupied over 4k draws.
        counts = [0] * 8
        for i in range(4000):
            counts[uniform_int(9, (i,), 0, 7)] += 1
        assert min(counts) > 4000 / 8 * 0.7
        assert max(counts) < 4000 / 8 * 1.3


# ---------------------------------------------------------------------------
# Zobrist keys (repro.cache keys) are a full rehash of the board; the
# incremental-update helpers had no caller and are gone with their tests.
# ---------------------------------------------------------------------------

class TestIncrementalZobristConnect4:
    def test_children_order_matches_legal_columns(self):
        """Children come in legal-column order."""
        game = ConnectFour()
        position = game.play(game.root(), 3)
        children = game.children(position)
        for column, child in zip(game.legal_columns(position), children):
            assert game.play(position, column) == child
