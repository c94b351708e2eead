"""Bitboard Othello rules: move generation, flipping, rendering.

The paper used Steven Scott's Othello program; this is a from-scratch
replacement (see DESIGN.md).  Boards are 64-bit integers, bit ``row*8+col``
with row 0 at the top.

Every kernel is straight-line integer code with no call per step.  The
eight directions are the four ``(shift, mask)`` pairs of
:data:`DIRECTIONS`, each used in both senses: a left shift one way, a
right shift the other.  The mask keeps horizontal and diagonal rays off
the edge files, so no ray wraps round an edge.  Move generation is a
Kogge-Stone fill from the mover's discs over ``opp & mask``, one step
further, then a single ``& empty``; :func:`both_legal_moves` runs it for
both sides at once on a lane-packed pair.  Flipping walks the same table
one ray at a time.
"""

from __future__ import annotations

from ...errors import IllegalMoveError

FULL = (1 << 64) - 1
FILE_A = 0x0101010101010101
FILE_H = 0x8080808080808080
NOT_A = FULL ^ FILE_A
NOT_H = FULL ^ FILE_H
INNER_FILES = NOT_A & NOT_H
RANK_1 = 0xFF
RANK_8 = RANK_1 << 56

CORNERS = (1 << 0) | (1 << 7) | (1 << 56) | (1 << 63)

#: X-squares: diagonal neighbours of corners (dangerous to occupy early).
X_SQUARES = (1 << 9) | (1 << 14) | (1 << 49) | (1 << 54)

#: C-squares: orthogonal neighbours of corners.
C_SQUARES = (
    (1 << 1) | (1 << 8) | (1 << 6) | (1 << 15) | (1 << 48) | (1 << 57) | (1 << 55) | (1 << 62)
)

#: Standard initial discs: black on d5/e4, white on d4/e5; black moves first.
BLACK_START = (1 << 28) | (1 << 35)
WHITE_START = (1 << 27) | (1 << 36)


#: Bit offset of the second board in a lane-packed pair of boards.  The
#: gap between lanes is wider than the longest shift, so no ray crosses it.
LANE = 128
#: ``FULL`` in both lanes.
BOTH_LANES = FULL | (FULL << LANE)

#: The four direction pairs as (shift, mask): a left shift by ``shift``
#: steps one way, a right shift the other.  ``mask`` (in both lanes)
#: holds the squares a ray may cross; horizontal and diagonal rays are
#: kept off the edge files so that none wraps from one edge to the other.
DIRECTIONS = (
    (1, (INNER_FILES << LANE) | INNER_FILES),  # east / west
    (8, BOTH_LANES),  # south / north
    (7, (INNER_FILES << LANE) | INNER_FILES),  # south-west / north-east
    (9, (INNER_FILES << LANE) | INNER_FILES),  # south-east / north-west
)


def legal_moves(own: int, opp: int) -> int:
    """Bitboard of squares where the side owning ``own`` may play.

    Also takes a lane-packed pair of positions (see :func:`both_legal_moves`).
    """
    moves = 0
    for shift, mask in DIRECTIONS:
        cross = opp & mask
        double = shift + shift
        # Kogge-Stone fill: three doubling steps cover the longest run of
        # six opposing discs.
        fill = own
        through = cross
        fill |= through & (fill << shift)
        through &= through << shift
        fill |= through & (fill << double)
        through &= through << double
        fill |= through & (fill << double + double)
        moves |= (fill & cross) << shift
        fill = own
        through = cross
        fill |= through & (fill >> shift)
        through &= through >> shift
        fill |= through & (fill >> double)
        through &= through >> double
        fill |= through & (fill >> double + double)
        moves |= (fill & cross) >> shift
    return moves & BOTH_LANES & ~(own | opp)


def both_legal_moves(own: int, opp: int) -> tuple[int, int]:
    """``(legal_moves(own, opp), legal_moves(opp, own))`` in one pass.

    The two positions ride in separate lanes of one integer, so the fill
    costs about as much as a single side's.
    """
    moves = legal_moves(own | (opp << LANE), opp | (own << LANE))
    return moves & FULL, moves >> LANE


def flips_for_move(own: int, opp: int, move: int) -> int:
    """Bitboard of opposing discs flipped by playing on ``move`` (one bit)."""
    flips = 0
    for shift, mask in DIRECTIONS:
        cross = opp & mask
        line = cross & (move << shift)
        if line:
            probe = line << shift
            while probe & cross:
                line |= probe
                probe <<= shift
            if probe & own:
                flips |= line
        line = cross & (move >> shift)
        if line:
            probe = line >> shift
            while probe & cross:
                line |= probe
                probe >>= shift
            if probe & own:
                flips |= line
    return flips


def apply_move(own: int, opp: int, move: int) -> tuple[int, int]:
    """Play ``move`` (a single-bit board) for the owner of ``own``.

    Returns the boards from the *mover's* perspective (own', opp').

    Raises:
        IllegalMoveError: if the move flips nothing or the square is taken.
    """
    if move & (own | opp):
        raise IllegalMoveError("square is already occupied")
    flips = flips_for_move(own, opp, move)
    if flips == 0:
        raise IllegalMoveError("move flips no discs")
    return own | move | flips, opp ^ flips


def bits(board: int):
    """Iterate the single-bit boards present in ``board``, ascending."""
    while board:
        low = board & -board
        yield low
        board ^= low


def square_name(bit: int) -> str:
    """Algebraic name (``a1`` top-left) of a single-bit board."""
    index = bit.bit_length() - 1
    return f"{chr(ord('a') + index % 8)}{index // 8 + 1}"


def square_bit(name: str) -> int:
    """Inverse of :func:`square_name`."""
    col = ord(name[0].lower()) - ord("a")
    row = int(name[1:]) - 1
    if not (0 <= col < 8 and 0 <= row < 8):
        raise ValueError(f"bad square name {name!r}")
    return 1 << (row * 8 + col)


def neighbourhood(board: int) -> int:
    """Squares of ``board`` and every square next to one of them."""
    row = board | ((board & NOT_H) << 1) | ((board & NOT_A) >> 1)
    return (row | (row << 8) | (row >> 8)) & FULL


def frontier(own: int, opp: int) -> int:
    """Discs of ``own`` adjacent to at least one empty square."""
    return own & neighbourhood(FULL ^ own ^ opp)


#: Each corner with the two edge lines it anchors.
_CORNER_EDGES = (
    (1 << 0, RANK_1, FILE_A),
    (1 << 7, RANK_1, FILE_H),
    (1 << 56, RANK_8, FILE_A),
    (1 << 63, RANK_8, FILE_H),
)


def edge_anchored_runs(own: int, opp: int) -> int:
    """Discs of either side in a same-color run from a corner along an edge.

    The run from each occupied corner grows one square at a time in both
    senses along its edge line; only the sense away from the corner can
    stay on the line, so it stops at the first square of another color.
    """
    runs = 0
    for corner, rank, file in _CORNER_EDGES:
        color = own if own & corner else opp
        if not color & corner:
            continue
        for line, shift in ((rank & color, 1), (file & color, 8)):
            run = 0
            grown = corner
            while grown != run:
                run = grown
                grown = run | (((run << shift) | (run >> shift)) & line)
            runs |= run
    return runs


def stable_edge_discs(own: int, opp: int) -> int:
    """Approximate stable discs: corner-anchored runs along the edges.

    True stability analysis requires global reasoning; corner-anchored
    edge chains are the standard cheap approximation and capture the
    dominant term.
    """
    return edge_anchored_runs(own, opp) & own


def render(black: int, white: int, black_to_move: bool = True) -> str:
    """ASCII board with ``*`` marking the mover's legal squares."""
    own, opp = (black, white) if black_to_move else (white, black)
    moves = legal_moves(own, opp)
    lines = ["  a b c d e f g h"]
    for row in range(8):
        cells = []
        for col in range(8):
            bit = 1 << (row * 8 + col)
            if black & bit:
                cells.append("B")
            elif white & bit:
                cells.append("W")
            elif moves & bit:
                cells.append("*")
            else:
                cells.append(".")
        lines.append(f"{row + 1} " + " ".join(cells))
    mover = "black" if black_to_move else "white"
    lines.append(f"({mover} to move)")
    return "\n".join(lines)
