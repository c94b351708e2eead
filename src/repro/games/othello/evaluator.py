"""Static evaluation for Othello, Rosenbloom (IAGO) style.

The paper cites Rosenbloom's world-championship-level program as the
reference for its Othello substrate.  This evaluator combines the features
that work is known for — mobility, potential mobility, corner control,
edge stability, and disc parity — with phase-dependent weights (disc count
matters only late; mobility matters most in the midgame).  Exact weights
are unimportant for the reproduction: any informative evaluator produces
partially ordered trees of the kind the paper searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import (
    C_SQUARES,
    CORNERS,
    FULL,
    X_SQUARES,
    both_legal_moves,
    edge_anchored_runs,
    neighbourhood,
)


@dataclass(frozen=True)
class EvaluationWeights:
    """Feature weights; one instance per game phase."""

    mobility: float
    potential_mobility: float
    corners: float
    x_penalty: float
    c_penalty: float
    stability: float
    discs: float


EARLY = EvaluationWeights(
    mobility=12.0,
    potential_mobility=5.0,
    corners=120.0,
    x_penalty=40.0,
    c_penalty=15.0,
    stability=30.0,
    discs=-2.0,
)
MID = EvaluationWeights(
    mobility=10.0,
    potential_mobility=3.0,
    corners=100.0,
    x_penalty=25.0,
    c_penalty=10.0,
    stability=35.0,
    discs=2.0,
)
LATE = EvaluationWeights(
    mobility=4.0,
    potential_mobility=1.0,
    corners=80.0,
    x_penalty=5.0,
    c_penalty=2.0,
    stability=40.0,
    discs=12.0,
)

#: Score used for decided games, far outside the heuristic range.
WIN_SCORE = 1_000_000.0


def phase_weights(disc_count: int) -> EvaluationWeights:
    """Select weights by the number of discs on the board."""
    if disc_count <= 24:
        return EARLY
    if disc_count <= 48:
        return MID
    return LATE


def evaluate(own: int, opp: int) -> float:
    """Heuristic value of the position for the side owning ``own``.

    Terminal positions (neither side can move) are scored exactly by disc
    difference, scaled beyond any heuristic value so search always prefers
    a true win to a promising position.
    """
    own_moves, opp_moves = both_legal_moves(own, opp)
    if own_moves == 0 and opp_moves == 0:
        margin = own.bit_count() - opp.bit_count()
        if margin > 0:
            return WIN_SCORE + margin
        if margin < 0:
            return -WIN_SCORE + margin
        return 0.0

    weights = phase_weights((own | opp).bit_count())
    score = 0.0

    score += weights.mobility * (own_moves.bit_count() - opp_moves.bit_count())

    empty = FULL ^ own ^ opp
    # Frontier discs are a liability: fewer is better, hence the sign flip.
    near_empty = neighbourhood(empty)
    score -= weights.potential_mobility * (
        (own & near_empty).bit_count() - (opp & near_empty).bit_count()
    )

    score += weights.corners * ((own & CORNERS).bit_count() - (opp & CORNERS).bit_count())

    # X/C squares next to an *empty* corner hand the corner to the opponent.
    danger_x, danger_c = _DANGER[empty & CORNERS]
    score -= weights.x_penalty * ((own & danger_x).bit_count() - (opp & danger_x).bit_count())
    score -= weights.c_penalty * ((own & danger_c).bit_count() - (opp & danger_c).bit_count())

    stable = edge_anchored_runs(own, opp)
    score += weights.stability * ((own & stable).bit_count() - (opp & stable).bit_count())

    score += weights.discs * (own.bit_count() - opp.bit_count())
    return score


_CORNER_NEIGHBOURHOODS = (
    (1 << 0, (1 << 1) | (1 << 8) | (1 << 9)),
    (1 << 7, (1 << 6) | (1 << 15) | (1 << 14)),
    (1 << 56, (1 << 57) | (1 << 48) | (1 << 49)),
    (1 << 63, (1 << 62) | (1 << 55) | (1 << 54)),
)


def _danger_table() -> dict[int, tuple[int, int]]:
    """X- and C-squares next to an empty corner, for every set of empty corners."""
    table: dict[int, tuple[int, int]] = {}
    empty_corners = CORNERS
    while True:
        near = 0
        for corner, around in _CORNER_NEIGHBOURHOODS:
            if empty_corners & corner:
                near |= around
        table[empty_corners] = (X_SQUARES & near, C_SQUARES & near)
        if not empty_corners:
            return table
        empty_corners = (empty_corners - 1) & CORNERS


#: ``(danger_x, danger_c)`` keyed by ``empty & CORNERS``.
_DANGER = _danger_table()
