"""Unit tests for the Othello game adapter and evaluator."""

import hashlib
import random

import pytest

from repro.errors import GameError
from repro.games.base import SearchProblem
from repro.games.othello import (
    BLACK,
    O1_ROOT,
    O2_ROOT,
    O3_ROOT,
    START,
    WHITE,
    Othello,
    OthelloPosition,
    evaluate,
    play_opening,
)
from repro.games.othello import board as B
from repro.games.othello.evaluator import WIN_SCORE
from repro.search.alphabeta import alphabeta
from repro.search.negamax import negamax
from repro.core.serial_er import er_search


class TestAdapter:
    def test_root_children_count(self):
        game = Othello()
        assert len(game.children(game.root())) == 4

    def test_children_swap_perspective(self):
        game = Othello()
        child = game.children(game.root())[0]
        assert child.color == WHITE
        assert child.disc_count == 5

    def test_pass_position(self):
        # Construct a position where the mover has no move but opponent does:
        # a single white disc next to a black run (white to move, boxed in).
        own = B.square_bit("a1")  # mover
        opp = B.square_bit("b1") | B.square_bit("c1")
        # mover can't capture (no own disc beyond), opponent can capture a1..?
        game = Othello()
        position = OthelloPosition(own, opp, WHITE)
        if B.legal_moves(own, opp) == 0 and B.legal_moves(opp, own) != 0:
            kids = game.children(position)
            assert len(kids) == 1  # forced pass
            assert kids[0].own == opp and kids[0].opp == own

    def test_game_over_no_children(self):
        game = Othello()
        # Full board: no moves for either side.
        own = B.FULL & 0x5555555555555555
        opp = B.FULL & ~own
        assert game.children(OthelloPosition(own, opp, BLACK)) == ()


class TestEvaluator:
    def test_antisymmetric(self):
        for position in (START, O1_ROOT, O2_ROOT):
            assert evaluate(position.own, position.opp) == -evaluate(position.opp, position.own)

    def test_corner_is_good(self):
        base = O1_ROOT
        with_corner = OthelloPosition(base.own | B.square_bit("a1"), base.opp, base.color)
        assert evaluate(with_corner.own, with_corner.opp) > evaluate(base.own, base.opp)

    def test_terminal_win_scored_beyond_heuristics(self):
        own = 0x0000000FFFFFFFFF  # 36 discs
        opp = B.FULL & ~own  # 28 discs; the board is full, so game over
        value = evaluate(own, opp)
        assert value > WIN_SCORE

    def test_terminal_draw_is_zero(self):
        own = 0xFFFFFFFF00000000
        opp = 0x00000000FFFFFFFF
        assert evaluate(own, opp) == 0.0


class TestExperimentRoots:
    @pytest.mark.parametrize("root", [O1_ROOT, O2_ROOT, O3_ROOT])
    def test_white_to_move_midgame(self, root):
        assert root.color == WHITE
        assert 19 <= root.disc_count <= 30
        # The position must be live: someone can move.
        assert B.legal_moves(root.own, root.opp) != 0 or B.legal_moves(root.opp, root.own) != 0

    def test_roots_are_distinct(self):
        boards = {(r.black, r.white) for r in (O1_ROOT, O2_ROOT, O3_ROOT)}
        assert len(boards) == 3

    def test_play_opening_deterministic(self):
        assert play_opening(10, seed=5) == play_opening(10, seed=5)

    def test_play_opening_counts_discs(self):
        position = play_opening(10, seed=5)
        assert position.disc_count == 14  # 4 initial + 10 moves


class TestSearchOnOthello:
    def test_all_algorithms_agree_depth3(self):
        problem = SearchProblem(Othello(O1_ROOT), depth=3, sort_below_root=2)
        truth = negamax(problem).value
        assert alphabeta(problem).value == truth
        assert er_search(problem).value == truth

    def test_render(self):
        text = Othello.render(START)
        assert "black to move" in text


def playout_digest(playouts_per_root: int = 12, seed: int = 0xD16E57) -> tuple[str, int]:
    """SHA-256 over seeded random playouts from START and O1-O3.

    Every visited position contributes its ``evaluate`` float bits and
    then each child ``(own, opp, color)`` in the order ``children``
    yields them, so the digest pins move generation, flipping, move
    order and evaluation together.  Returns the digest and the number
    of positions visited.
    """
    game = Othello()
    rng = random.Random(seed)
    digest = hashlib.sha256()
    visited = 0
    for root in (START, O1_ROOT, O2_ROOT, O3_ROOT):
        for _ in range(playouts_per_root):
            position = root
            while True:
                digest.update(evaluate(position.own, position.opp).hex().encode())
                kids = game.children(position)
                for kid in kids:
                    digest.update(f"{kid.own:x},{kid.opp:x},{kid.color};".encode())
                visited += 1
                if not kids:
                    break
                position = kids[rng.randrange(len(kids))]
    return digest.hexdigest(), visited


class TestGoldenSemantics:
    def test_playout_digest(self):
        # Absolute values, not a comparison between two kernels: any
        # change to Othello rules, move order or evaluation arithmetic
        # changes the digest.
        assert playout_digest() == (
            "96f0fe5275611344f92da48f03f9009b4e8495a167c043a67928179bca08dbe0",
            2263,
        )


def per_disc_key(position: OthelloPosition) -> int:
    """The Zobrist key's definition: every disc's key, one at a time."""
    from repro.games.othello.game import _SIDE, _ZOBRIST

    key = _SIDE if position.color == WHITE else 0
    for square in range(64):
        if position.black >> square & 1:
            key ^= _ZOBRIST[square][BLACK]
        if position.white >> square & 1:
            key ^= _ZOBRIST[square][WHITE]
    return key


class TestZobristKey:
    def test_byte_table_keys_equal_per_disc_keys(self):
        game = Othello()
        rng = random.Random(0x2E7)
        checked = passes = 0
        for root in (START, O1_ROOT, O2_ROOT, O3_ROOT):
            for _ in range(8):
                position = root
                while True:
                    assert Othello.hash_key(position) == per_disc_key(position)
                    checked += 1
                    kids = game.children(position)
                    if not kids:
                        break
                    if len(kids) == 1 and (kids[0].own, kids[0].opp) == (
                        position.opp,
                        position.own,
                    ):
                        passes += 1
                    position = kids[rng.randrange(len(kids))]
        assert checked > 1000 and passes > 0

    def test_full_bytes_for_either_side_to_move(self):
        full = OthelloPosition(B.FULL ^ 0xFF, 0xFF, BLACK)
        for position in (full, OthelloPosition(full.opp, full.own, WHITE)):
            assert Othello.hash_key(position) == per_disc_key(position)
