"""Unit tests for the Othello bitboard, cross-checked against a naive
array-based reference implementation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IllegalMoveError
from repro.games.othello import BLACK, WHITE, Othello, OthelloPosition
from repro.games.othello import board as B

# ---------------------------------------------------------------------------
# Naive reference implementation (obviously-correct, array-based).
# ---------------------------------------------------------------------------

DIRS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def to_grid(own: int, opp: int):
    grid = [[0] * 8 for _ in range(8)]
    for r in range(8):
        for c in range(8):
            bit = 1 << (r * 8 + c)
            if own & bit:
                grid[r][c] = 1
            elif opp & bit:
                grid[r][c] = 2
    return grid


def naive_legal_moves(own: int, opp: int) -> int:
    grid = to_grid(own, opp)
    moves = 0
    for r in range(8):
        for c in range(8):
            if grid[r][c] != 0:
                continue
            for dr, dc in DIRS:
                rr, cc = r + dr, c + dc
                seen_opp = False
                while 0 <= rr < 8 and 0 <= cc < 8 and grid[rr][cc] == 2:
                    seen_opp = True
                    rr += dr
                    cc += dc
                if seen_opp and 0 <= rr < 8 and 0 <= cc < 8 and grid[rr][cc] == 1:
                    moves |= 1 << (r * 8 + c)
                    break
    return moves


def naive_flips(own: int, opp: int, move: int) -> int:
    grid = to_grid(own, opp)
    index = move.bit_length() - 1
    r, c = divmod(index, 8)
    flips = 0
    for dr, dc in DIRS:
        rr, cc = r + dr, c + dc
        line = 0
        while 0 <= rr < 8 and 0 <= cc < 8 and grid[rr][cc] == 2:
            line |= 1 << (rr * 8 + cc)
            rr += dr
            cc += dc
        if line and 0 <= rr < 8 and 0 <= cc < 8 and grid[rr][cc] == 1:
            flips |= line
    return flips


def on_board(r: int, c: int) -> bool:
    return 0 <= r < 8 and 0 <= c < 8


def naive_frontier(own: int, opp: int) -> int:
    grid = to_grid(own, opp)
    frontier = 0
    for r in range(8):
        for c in range(8):
            if grid[r][c] == 1 and any(
                on_board(r + dr, c + dc) and grid[r + dr][c + dc] == 0 for dr, dc in DIRS
            ):
                frontier |= 1 << (r * 8 + c)
    return frontier


def naive_stable_edge_discs(own: int, opp: int) -> int:
    """Own discs in a same-color run from a corner along an edge."""
    grid = to_grid(own, opp)
    stable = 0
    for r, c in ((0, 0), (0, 7), (7, 0), (7, 7)):
        color = grid[r][c]
        if color == 0:
            continue
        # Walk from the corner along its row and along its column.
        for dr, dc in ((0, 1 if c == 0 else -1), (1 if r == 0 else -1, 0)):
            rr, cc = r, c
            while on_board(rr, cc) and grid[rr][cc] == color:
                if color == 1:
                    stable |= 1 << (rr * 8 + cc)
                rr += dr
                cc += dc
    return stable


def random_position(rng_bits: int):
    """Derive a plausible random position from 128 bits of entropy."""
    own = rng_bits & B.FULL
    opp = (rng_bits >> 64) & B.FULL & ~own
    return own, opp


def sparse_position(rng_bits: int):
    """A position with about 60% of squares empty, from 192 bits.

    Each side's word is ANDed with a third random word, so opening-like
    boards with long empty stretches are drawn as often as crowded ones.
    """
    own, opp = random_position(rng_bits)
    keep = (rng_bits >> 128) & B.FULL
    return own & keep, opp & keep


def seeded_position(seed: int):
    """A dense board (about 25% empty) or a sparse one, equally often.

    The words come from a generator seeded by the drawn integer, not from
    the integer itself: Hypothesis leans towards small values, and those
    are boards with almost no discs and no legal move.
    """
    rng = random.Random(seed)
    if rng.getrandbits(1):
        return sparse_position(rng.getrandbits(192))
    return random_position(rng.getrandbits(128))


positions = st.integers(min_value=0, max_value=2**32 - 1).map(seeded_position)


# ---------------------------------------------------------------------------


class TestStartPosition:
    def test_black_has_four_opening_moves(self):
        moves = B.legal_moves(B.BLACK_START, B.WHITE_START)
        names = {B.square_name(bit) for bit in B.bits(moves)}
        assert names == {"d3", "c4", "f5", "e6"}

    def test_opening_move_flips_one_disc(self):
        move = B.square_bit("d3")
        flips = B.flips_for_move(B.BLACK_START, B.WHITE_START, move)
        assert flips.bit_count() == 1
        assert flips == B.square_bit("d4")


class TestApplyMove:
    def test_occupied_square_rejected(self):
        with pytest.raises(IllegalMoveError):
            B.apply_move(B.BLACK_START, B.WHITE_START, B.square_bit("d4"))

    def test_non_flipping_move_rejected(self):
        with pytest.raises(IllegalMoveError):
            B.apply_move(B.BLACK_START, B.WHITE_START, B.square_bit("a1"))

    def test_disc_conservation(self):
        move = B.square_bit("d3")
        own2, opp2 = B.apply_move(B.BLACK_START, B.WHITE_START, move)
        assert (own2 | opp2).bit_count() == 5
        assert own2 & opp2 == 0


class TestAgainstNaiveReference:
    @given(positions)
    def test_legal_moves_match(self, position):
        own, opp = position
        assert B.legal_moves(own, opp) == naive_legal_moves(own, opp)

    @given(positions)
    def test_both_legal_moves_match(self, position):
        own, opp = position
        assert B.both_legal_moves(own, opp) == (
            naive_legal_moves(own, opp),
            naive_legal_moves(opp, own),
        )

    @given(positions)
    def test_flips_match_for_every_legal_move(self, position):
        own, opp = position
        moves = B.legal_moves(own, opp)
        for move in B.bits(moves):
            assert B.flips_for_move(own, opp, move) == naive_flips(own, opp, move)

    @given(positions)
    def test_frontier_matches(self, position):
        own, opp = position
        assert B.frontier(own, opp) == naive_frontier(own, opp)
        assert B.frontier(opp, own) == naive_frontier(opp, own)

    @given(positions)
    def test_stable_edge_discs_match(self, position):
        own, opp = position
        assert B.stable_edge_discs(own, opp) == naive_stable_edge_discs(own, opp)
        assert B.stable_edge_discs(opp, own) == naive_stable_edge_discs(opp, own)

    @given(positions, st.sampled_from([BLACK, WHITE]))
    def test_children_match_apply_move(self, position, color):
        own, opp = position
        moves = B.legal_moves(own, opp)
        expected = []
        for move in B.bits(moves):
            own2, opp2 = B.apply_move(own, opp, move)
            expected.append(OthelloPosition(opp2, own2, 1 - color))
        if not moves and B.legal_moves(opp, own):
            expected.append(OthelloPosition(opp, own, 1 - color))
        assert Othello().children(OthelloPosition(own, opp, color)) == tuple(expected)


class TestSquareNames:
    def test_corners(self):
        assert B.square_name(1 << 0) == "a1"
        assert B.square_name(1 << 7) == "h1"
        assert B.square_name(1 << 56) == "a8"
        assert B.square_name(1 << 63) == "h8"

    @given(st.integers(0, 63))
    def test_round_trip(self, index):
        bit = 1 << index
        assert B.square_bit(B.square_name(bit)) == bit

    def test_bad_name(self):
        with pytest.raises(ValueError):
            B.square_bit("z9")


class TestHelpers:
    def test_bits_iterates_ascending(self):
        board = (1 << 3) | (1 << 10) | (1 << 63)
        assert list(B.bits(board)) == [1 << 3, 1 << 10, 1 << 63]

    def test_frontier_of_start(self):
        # All four starting discs touch empty squares.
        assert B.frontier(B.BLACK_START, B.WHITE_START) == B.BLACK_START

    def test_stable_edges_requires_corner(self):
        # An edge run not anchored at a corner is not stable.
        own = B.square_bit("c1") | B.square_bit("d1")
        assert B.stable_edge_discs(own, 0) == 0

    def test_stable_edges_from_corner(self):
        own = B.square_bit("a1") | B.square_bit("b1") | B.square_bit("c1") | B.square_bit("a2")
        stable = B.stable_edge_discs(own, 0)
        assert stable == own

    def test_render_marks_legal_squares(self):
        text = B.render(B.BLACK_START, B.WHITE_START, black_to_move=True)
        assert text.count("*") == 4
        assert "black to move" in text
