"""Connect Four on a configurable board, as a second real game substrate.

Uses the classic bitboard layout (one column of ``height + 1`` bits per
file, the top bit a sentinel) so win detection is four shift-and-mask
operations.  Included to exercise the search stack on a game with a
different branching profile than Othello (constant width, long forced
lines) in the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import GameError, IllegalMoveError
from . import _numpy
from .zobrist import side_to_move_key, zobrist_table


@dataclass(frozen=True)
class C4Position:
    """Bitboards of the side to move and of both sides combined."""

    current: int
    mask: int
    moves_made: int


class ConnectFour:
    """Connect Four game adapter.

    Args:
        width: number of columns (default 7).
        height: number of rows (default 6).
    """

    def __init__(self, width: int = 7, height: int = 6):
        if width < 4 and height < 4:
            raise GameError("board must fit a line of four in some direction")
        if width < 1 or height < 1:
            raise GameError("board dimensions must be positive")
        self.width = width
        self.height = height
        self._column_stride = height + 1
        self._bottom_row = 0
        for col in range(width):
            self._bottom_row |= 1 << (col * self._column_stride)
        self._full_mask = ((1 << (self._column_stride * width)) - 1) & ~(
            self._bottom_row << height
        )
        # Zobrist keys per (bit cell, absolute player); seeded by the
        # board shape so equal-shaped boards (e.g. one game instance per
        # worker process) produce identical keys.
        zseed = 0xC4 ^ (width << 8) ^ (height << 16)
        self._zobrist = zobrist_table(seed=zseed, n_cells=self._column_stride * width)
        self._side = side_to_move_key(seed=zseed)

    def root(self) -> C4Position:
        return C4Position(0, 0, 0)

    def legal_columns(self, position: C4Position) -> list[int]:
        """Columns that are not yet full."""
        stride = self._column_stride
        top = 1 << (self.height - 1)
        return [
            col
            for col in range(self.width)
            if not (position.mask >> (col * stride)) & top
        ]

    def play(self, position: C4Position, column: int) -> C4Position:
        """Drop a stone in ``column``.

        Raises:
            IllegalMoveError: if the column is full or out of range.
        """
        if not 0 <= column < self.width:
            raise IllegalMoveError(f"column {column} out of range")
        stride = self._column_stride
        if (position.mask >> (column * stride)) & (1 << (self.height - 1)):
            raise IllegalMoveError(f"column {column} is full")
        new_mask = position.mask | (position.mask + (1 << (column * stride)))
        # The opponent becomes the side to move: its stones are the old
        # occupied cells minus the mover's, which is current XOR mask.
        return C4Position(
            position.current ^ position.mask,
            new_mask,
            position.moves_made + 1,
        )

    def _has_won(self, board: int) -> bool:
        """Does ``board`` contain four aligned stones?"""
        stride = self._column_stride
        for shift in (1, stride, stride + 1, stride - 1):
            paired = board & (board >> shift)
            if paired & (paired >> (2 * shift)):
                return True
        return False

    def opponent_just_won(self, position: C4Position) -> bool:
        """True when the player who moved last completed a line."""
        opponent = position.current ^ position.mask
        return self._has_won(opponent)

    def children(self, position: C4Position) -> Sequence[C4Position]:
        if self.opponent_just_won(position):
            return ()
        if position.mask == self._full_mask:
            return ()
        return tuple(self.play(position, col) for col in self.legal_columns(position))

    def evaluate(self, position: C4Position) -> float:
        if self.opponent_just_won(position):
            # Prefer faster wins: losses that arrive later score higher.
            return -10_000.0 + position.moves_made
        if position.mask == self._full_mask:
            return 0.0
        return float(
            self._threat_count(position.current, position.mask)
            - self._threat_count(position.current ^ position.mask, position.mask)
        )

    def batch_eval(self, positions: Sequence[C4Position]) -> list[float]:
        """Vectorized evaluation of many positions (numpy fast path).

        Element-wise identical to :meth:`evaluate`; the uint64 path is
        gated on the board fitting 64 bits with all shift distances below
        the word size, so oversized boards (and numpy-less installs) take
        the scalar loop.
        """
        stride = self._column_stride
        fits_uint64 = stride * self.width <= 64 and 3 * (stride + 1) < 64
        if not (_numpy.HAVE_NUMPY and fits_uint64 and len(positions) > 0):
            return [self.evaluate(position) for position in positions]
        np = _numpy.np
        n = len(positions)
        current = np.fromiter((p.current for p in positions), dtype=np.uint64, count=n)
        mask = np.fromiter((p.mask for p in positions), dtype=np.uint64, count=n)
        moves_made = np.fromiter(
            (p.moves_made for p in positions), dtype=np.int64, count=n
        )
        opponent = current ^ mask
        lost = self._has_won_arrays(np, opponent)
        full = mask == np.uint64(self._full_mask)
        heuristic = self._threat_count_arrays(np, current, mask) - (
            self._threat_count_arrays(np, opponent, mask)
        )
        return [
            float(v)
            for v in np.where(
                lost, -10_000.0 + moves_made, np.where(full, 0.0, heuristic)
            )
        ]

    def _has_won_arrays(self, np: Any, board: Any) -> Any:
        """Vector form of :meth:`_has_won` over a uint64 board array."""
        stride = self._column_stride
        won = None
        for shift in (1, stride, stride + 1, stride - 1):
            paired = board & (board >> np.uint64(shift))
            hit = (paired & (paired >> np.uint64(2 * shift))) != 0
            won = hit if won is None else (won | hit)
        return won

    def _threat_count_arrays(self, np: Any, board: Any, mask: Any) -> Any:
        """Vector form of :meth:`_threat_count` over uint64 arrays.

        Bits a Python-int shift would carry past the mask are discarded
        by uint64 arithmetic instead; they can never land in ``empties``,
        which lives below ``2 ** (stride * width)``.
        """
        stride = self._column_stride
        empties = np.uint64(self._full_mask) & ~mask
        threats = np.zeros(board.shape, dtype=np.int64)
        for shift in (1, stride, stride + 1, stride - 1):
            trio = (
                board
                & (board >> np.uint64(shift))
                & (board >> np.uint64(2 * shift))
            )
            threats += np.bitwise_count((trio << np.uint64(3 * shift)) & empties).astype(
                np.int64
            )
            threats += np.bitwise_count((trio >> np.uint64(shift)) & empties).astype(
                np.int64
            )
        return threats

    def hash_key(self, position: C4Position) -> int:
        """Full Zobrist rehash over every placed stone plus side to move.

        Stones are keyed by *absolute* player (first or second mover),
        not by the side-to-move perspective of ``current`` — perspective
        flips every ply, which would force rekeying the whole board.
        """
        first = (
            position.current
            if position.moves_made % 2 == 0
            else position.current ^ position.mask
        )
        key = 0
        remaining = position.mask
        while remaining:
            low = remaining & -remaining
            owner = 0 if first & low else 1
            key ^= self._zobrist[low.bit_length() - 1][owner]
            remaining ^= low
        if position.moves_made % 2 == 1:
            key ^= self._side
        return key

    def _threat_count(self, board: int, mask: int) -> int:
        """Number of open three-in-a-rows — a simple positional heuristic."""
        stride = self._column_stride
        empties = self._full_mask & ~mask
        threats = 0
        for shift in (1, stride, stride + 1, stride - 1):
            # trio bit p set  <=>  stones at p, p+shift, p+2*shift.
            trio = board & (board >> shift) & (board >> (2 * shift))
            threats += ((trio << (3 * shift)) & empties).bit_count()
            threats += ((trio >> shift) & empties).bit_count()
        return threats

    def render(self, position: C4Position) -> str:
        """ASCII board for examples and debugging."""
        stride = self._column_stride
        mover_is_first = position.moves_made % 2 == 0
        rows = []
        for row in range(self.height - 1, -1, -1):
            cells = []
            for col in range(self.width):
                bit = 1 << (col * stride + row)
                if not position.mask & bit:
                    cells.append(".")
                elif bool(position.current & bit) == mover_is_first:
                    cells.append("X")
                else:
                    cells.append("O")
            rows.append(" ".join(cells))
        return "\n".join(rows)
