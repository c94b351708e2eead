"""Othello as a :class:`~repro.games.base.Game`, with the O1–O3 roots.

Positions are ``(own, opp, color)`` triples of bitboards plus the mover's
color (0 = black, 1 = white).  A player with no legal move passes — the
position has exactly one child with the boards swapped — and the game ends
when neither side can move.

The paper's three experimental trees O1–O3 start from mid-game positions
(its Figure 9) with white to move.  Those exact boards are not recoverable
from the scanned figure, so this module derives three analogous mid-game
roots by playing fixed pseudo-random opening lines from the standard start
(substitution documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ...errors import GameError
from .._hashing import splitmix64
from ..zobrist import side_to_move_key, zobrist_table
from . import board as B
from .evaluator import evaluate as evaluate_boards

BLACK = 0
WHITE = 1

#: Zobrist keys: one 64-bit constant per (square, disc color), plus a
#: side-to-move constant.  Module-level so every Othello instance — and
#: every worker process — shares the same keys.
_ZOBRIST = zobrist_table(seed=0x07E110, n_cells=64, n_owners=2)
_SIDE = side_to_move_key(seed=0x07E110)

#: :data:`_ZOBRIST` by board byte, built on the first key asked for (a
#: search that never hashes never builds it).  Entry ``256 * plane + b``
#: XORs the keys of the discs that byte value ``b`` sets; planes 0-7 are
#: black's bytes, lowest first, and planes 8-15 white's.
_BYTE_KEYS: Optional[list[int]] = None


def _byte_keys() -> list[int]:
    global _BYTE_KEYS
    if _BYTE_KEYS is None:
        table = [0] * (16 * 256)
        for plane in range(16):
            color, byte_index = divmod(plane, 8)
            base = plane * 256
            for byte in range(1, 256):
                low = byte & -byte
                square = byte_index * 8 + low.bit_length() - 1
                table[base | byte] = table[base | byte ^ low] ^ _ZOBRIST[square][color]
        _BYTE_KEYS = table
    return _BYTE_KEYS


@dataclass(frozen=True)
class OthelloPosition:
    """Immutable position: mover's discs, opponent's discs, mover's color."""

    own: int
    opp: int
    color: int

    @property
    def black(self) -> int:
        return self.own if self.color == BLACK else self.opp

    @property
    def white(self) -> int:
        return self.own if self.color == WHITE else self.opp

    @property
    def disc_count(self) -> int:
        return (self.own | self.opp).bit_count()


START = OthelloPosition(B.BLACK_START, B.WHITE_START, BLACK)


class Othello:
    """Game adapter for Othello.

    Args:
        root_position: position to search from (defaults to the standard
            opening position with black to move).
    """

    def __init__(self, root_position: OthelloPosition = START):
        self._root = root_position

    def root(self) -> OthelloPosition:
        return self._root

    def children(self, position: OthelloPosition) -> Sequence[OthelloPosition]:
        moves = B.legal_moves(position.own, position.opp)
        other = 1 - position.color
        if moves == 0:
            if B.legal_moves(position.opp, position.own) == 0:
                return ()  # Neither side can move: game over.
            # Forced pass: hand the move to the opponent.
            return (OthelloPosition(position.opp, position.own, other),)
        own, opp = position.own, position.opp
        successors = []
        while moves:
            move = moves & -moves
            moves ^= move
            flips = B.flips_for_move(own, opp, move)
            successors.append(OthelloPosition(opp ^ flips, own | move | flips, other))
        return tuple(successors)

    def evaluate(self, position: OthelloPosition) -> float:
        return evaluate_boards(position.own, position.opp)

    def batch_eval(self, positions: Sequence[OthelloPosition]) -> list[float]:
        """Vectorized evaluation of many positions (numpy fast path).

        Element-wise identical to :meth:`evaluate` — the batch module
        mirrors the scalar evaluator's operation order in float64 — with
        a scalar-loop fallback when numpy is unavailable.
        """
        from . import batch as _batch

        if _batch.HAVE_NUMPY and len(positions) > 0:
            return _batch.evaluate_positions(list(positions))
        return [evaluate_boards(p.own, p.opp) for p in positions]

    @staticmethod
    def hash_key(position: OthelloPosition) -> int:
        """Zobrist key: XOR of every disc's key plus side to move.

        Looked up a board byte at a time in :func:`_byte_keys`, 16
        lookups in all, and bit-identical to XORing the discs' keys one
        by one (the reference the tests keep).
        """
        table = _BYTE_KEYS or _byte_keys()
        if position.color == WHITE:
            white, black, key = position.own, position.opp, _SIDE
        else:
            black, white, key = position.own, position.opp, 0
        plane = 0
        for byte in black.to_bytes(8, "little") + white.to_bytes(8, "little"):
            key ^= table[plane | byte]
            plane += 256
        return key

    @staticmethod
    def render(position: OthelloPosition) -> str:
        return B.render(position.black, position.white, position.color == BLACK)


def play_opening(plies: int, seed: int) -> OthelloPosition:
    """Play ``plies`` legal moves from the start, chosen by a seeded policy.

    The policy hashes (seed, ply) to pick among the legal moves, so the
    resulting mid-game position is deterministic and always reachable by
    legal play.  Passes do not count as plies.

    Raises:
        GameError: if the game ends before ``plies`` moves are made.
    """
    game = Othello()
    position = START
    state = seed
    for ply in range(plies):
        moves = B.legal_moves(position.own, position.opp)
        other = 1 - position.color
        if moves == 0:
            if B.legal_moves(position.opp, position.own) == 0:
                raise GameError(f"game ended after only {ply} plies")
            position = OthelloPosition(position.opp, position.own, other)
            moves = B.legal_moves(position.own, position.opp)
            other = 1 - position.color
        choices = list(B.bits(moves))
        state = splitmix64(state ^ ply)
        move = choices[state % len(choices)]
        own2, opp2 = B.apply_move(position.own, position.opp, move)
        position = OthelloPosition(opp2, own2, other)
    del game
    return position


def _midgame_root(seed: int) -> OthelloPosition:
    """A mid-game root with white to move, as in the paper's Figure 9."""
    for plies in range(19, 26):
        position = play_opening(plies=plies, seed=seed)
        if position.color == WHITE:
            return position
    raise GameError("could not produce a white-to-move mid-game position")


#: The three Othello experiment roots (stand-ins for the paper's Figure 9).
O1_ROOT = _midgame_root(seed=1001)
O2_ROOT = _midgame_root(seed=2002)
O3_ROOT = _midgame_root(seed=3003)
