"""A game-playing engine on top of the search algorithms.

The paper's searches answer "what is the value of this position?"; a
game player needs "which move do I make, given a budget?".  This module
supplies that layer: iterative deepening with aspiration windows over
any of the package's serial or parallel searches, with move choice,
principal-variation reporting, and simulated-time budgets.

This is the layer `examples/othello_match.py` demonstrates; it is also
the natural home for the paper's practical payoff — a parallel engine
converts its speedup into extra search depth at a fixed time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .cache import TT, check_cache_mode, make_tt
from .core.er_parallel import ERConfig, parallel_er
from .core.serial_er import er_search
from .parallel.multiproc import EnginePool, multiproc_er
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .errors import SearchError
from .games.base import Game, Position, RootedGame, SearchProblem
from .obs import events as _obs
from .obs import probe as _probe
from .search.alphabeta import alphabeta
from .search.stats import SearchStats


@dataclass(frozen=True)
class MoveChoice:
    """The engine's decision for one position."""

    move_index: int
    value: float
    depth_reached: int
    cost: float
    per_move_values: tuple[float, ...]


def root_decision(child_values: Sequence[float]) -> tuple[int, tuple[float, ...]]:
    """One deepening iteration's root rule: the best move and every move's value.

    Each child's value (from the child's side to move) is negated into
    the mover's frame; the best move is the argmax, ties going to the
    lowest index.  :meth:`GameEngine.choose` and the service's
    :class:`~repro.serve.pool.PoolEngine` both decide through it.
    """
    values = tuple(-value for value in child_values)
    return max(range(len(values)), key=values.__getitem__), values


@dataclass
class EngineConfig:
    """How the engine searches.

    Attributes:
        algorithm: ``"alphabeta"``, ``"er"``, ``"parallel-er"`` (simulated
            processors), or ``"multiproc-er"`` (real worker processes).
        n_processors: simulated processors for ``"parallel-er"``; worker
            processes for ``"multiproc-er"``.
        max_depth: deepest iteration of iterative deepening.
        budget: stop deepening once this much simulated time is spent
            (``None`` = always reach ``max_depth``).
        aspiration_delta: half-width of the iterative-deepening window
            seeded from the previous iteration (``None`` disables).
        sort_below_root: ordering policy handed to each search.
        er_serial_depth: serial-depth setting for parallel ER.
        tt: transposition-table mode for the ER algorithms — ``off``,
            ``private``, or ``shared`` (:data:`repro.cache.CACHE_MODES`).
            For ``er``/``parallel-er`` one table persists across the
            engine's iterative-deepening iterations and move choices, so
            shallow iterations seed the deeper ones; ``multiproc-er``
            builds a short-lived pool, table included, per search call
            unless ``pool`` is set.
            Ignored by ``alphabeta``.
        pool: caller-owned worker pool
            (:class:`~repro.parallel.multiproc.EnginePool`) for
            ``multiproc-er``, with exactly ``n_processors`` workers.
            When set, every subtree search of every deepening iteration
            and every :meth:`GameEngine.choose` call runs on the same
            warm worker processes and shared caches instead of a
            short-lived pool per search, which is what lets one engine
            serve many requests.  The pool's cache configuration
            replaces ``tt``; the caller owns the pool's lifetime.
    """

    algorithm: str = "alphabeta"
    n_processors: int = 1
    max_depth: int = 4
    budget: Optional[float] = None
    aspiration_delta: Optional[float] = None
    sort_below_root: int = 2
    er_serial_depth: int = 1
    tt: str = "off"
    cost_model: CostModel = DEFAULT_COST_MODEL
    pool: Optional[EnginePool] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ("alphabeta", "er", "parallel-er", "multiproc-er"):
            raise SearchError(f"unknown engine algorithm {self.algorithm!r}")
        if self.max_depth < 1:
            raise SearchError("max_depth must be at least 1")
        if self.n_processors < 1:
            raise SearchError("n_processors must be at least 1")
        check_cache_mode(TT, self.tt)
        if self.pool is not None and self.algorithm != "multiproc-er":
            raise SearchError("a persistent pool only applies to 'multiproc-er'")


class GameEngine:
    """Chooses moves for any :class:`~repro.games.base.Game`."""

    def __init__(self, game: Game, config: EngineConfig = EngineConfig()) -> None:
        self.game = game
        self.config = config
        # One engine-lifetime table: every subtree search and deepening
        # iteration reads what earlier ones proved (keys are position
        # hashes, so they agree across RootedGame re-rootings).
        self._tt = (
            make_tt(config.tt, cost_model=config.cost_model)
            if config.algorithm in ("er", "parallel-er")
            else None
        )

    # -- single-position evaluation ----------------------------------------

    def _evaluate_subtree(self, position: Position, depth: int) -> tuple[float, float]:
        """Value and simulated cost of searching one child subtree."""
        cfg = self.config
        problem = SearchProblem(
            RootedGame(self.game, position),
            depth=depth,
            sort_below_root=cfg.sort_below_root,
        )
        if cfg.algorithm == "alphabeta":
            result = alphabeta(problem, cost_model=cfg.cost_model)
            return result.value, result.cost
        if cfg.algorithm == "er":
            table = None if self._tt is None else self._tt.view(0)
            result = er_search(problem, cost_model=cfg.cost_model, table=table)
            return result.value, result.cost
        if cfg.algorithm == "multiproc-er":
            # Budgets stay in simulated units: the merged stats are charged
            # through the same cost model as every other backend, so a
            # time budget means the same amount of work regardless of how
            # many real cores happened to be available.  A set pool's
            # cache configuration wins over tt_mode.
            mp_result = multiproc_er(
                problem,
                cfg.n_processors,
                config=ERConfig(serial_depth=cfg.er_serial_depth),
                cost_model=cfg.cost_model,
                tt_mode=cfg.tt,
                pool=cfg.pool,
            )
            return mp_result.value, mp_result.stats.cost
        parallel = parallel_er(
            problem,
            cfg.n_processors,
            config=ERConfig(serial_depth=cfg.er_serial_depth),
            cost_model=cfg.cost_model,
            tt=self._tt,
        )
        return parallel.value, parallel.sim_time

    # -- move choice ---------------------------------------------------------

    def choose(self, position: Position) -> MoveChoice:
        """Pick a move by iterative deepening over the children.

        Raises:
            SearchError: if the position has no moves.
        """
        children = self.game.children(position)
        if not children:
            raise SearchError("no legal moves at this position")
        cfg = self.config
        spent = 0.0
        best_index = 0
        best_value = float("-inf")
        values: tuple[float, ...] = ()
        depth_reached = 0
        for depth in range(1, cfg.max_depth + 1):
            child_values: list[float] = []
            for child in children:
                value, cost = self._evaluate_subtree(child, depth - 1)
                spent += cost
                child_values.append(value)
            depth_reached = depth
            best_index, values = root_decision(child_values)
            best_value = values[best_index]
            if cfg.budget is not None and spent >= cfg.budget:
                break
        p = _probe.CURRENT
        if p is not None:
            p.emit(
                _obs.EV_ENGINE_CHOICE,
                task=-1,
                move_index=best_index,
                value=best_value,
                depth=depth_reached,
                cost=spent,
            )
        return MoveChoice(
            move_index=best_index,
            value=best_value,
            depth_reached=depth_reached,
            cost=spent,
            per_move_values=values,
        )

    def play(self, position: Position) -> Position:
        """Make the chosen move and return the successor position."""
        choice = self.choose(position)
        return self.game.children(position)[choice.move_index]


@dataclass
class MatchResult:
    """Outcome of a self-play match between two engines."""

    positions: list[Position] = field(default_factory=list)
    moves: int = 0

    @property
    def final_position(self) -> Position:
        return self.positions[-1]


def play_match(
    game: Game,
    first: GameEngine,
    second: GameEngine,
    *,
    max_moves: int = 200,
    on_move: Optional[Callable[[int, Position], None]] = None,
) -> MatchResult:
    """Alternate two engines from the game's root until it ends.

    Engines must be built over the same ``game``.  ``on_move`` is called
    after every move with (move_number, position) for rendering.
    """
    position = game.root()
    result = MatchResult(positions=[position])
    engines = (first, second)
    while result.moves < max_moves:
        if not game.children(position):
            break
        engine = engines[result.moves % 2]
        position = engine.play(position)
        result.moves += 1
        result.positions.append(position)
        if on_move is not None:
            on_move(result.moves, position)
    return result
