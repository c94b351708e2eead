"""Cross-backend differential parity harness.

Every execution substrate must report the same root value for the same
problem: serial ER, parallel ER on the discrete-event simulator, the
threaded driver, and the multiprocess backend, with serial alpha-beta as
the independent oracle.  The grid below sweeps seeds, game families,
depths, and processor counts — well over fifty combinations — so a
divergence in any backend's window, combine, or cutoff logic shows up as
a value mismatch tagged with the exact combination that produced it.
"""

from __future__ import annotations

import pytest

from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.serial_er import er_search
from repro.engine import EngineConfig, GameEngine
from repro.games.base import SearchProblem
from repro.games.connect4 import ConnectFour
from repro.games.explicit import FIGURE6, FIGURE7, ExplicitTree
from repro.games.nim import Nim
from repro.games.othello.game import O1_ROOT, O2_ROOT, Othello
from repro.games.random_tree import (
    IncrementalGameTree,
    RandomGameTree,
    SyntheticOrderedTree,
)
from repro.games.tictactoe import TicTacToe
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er
from repro.search.alphabeta import alphabeta
from repro.workloads.suite import table3_suite

# Small hand-built trees beyond the paper's two figures: a ragged tree,
# a tree whose best move is last, and one with repeated values (tie
# handling must not depend on the backend).
RAGGED = [[3.0, [1.0, -4.0]], [-2.0], [[5.0, 0.0], 2.0, -1.0]]
BEST_LAST = [[9.0, 8.0], [7.0, 6.0], [1.0, -9.0]]
ALL_TIES = [[4.0, 4.0], [4.0, 4.0]]


def _cases() -> list:
    """(id, problem factory) for every grid point."""
    cases = []

    def add(name, factory):
        cases.append(pytest.param(factory, id=name))

    for degree, height in ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3)):
        for seed in (0, 1, 2, 3):
            add(
                f"rand-d{degree}h{height}s{seed}",
                lambda d=degree, h=height, s=seed: SearchProblem(
                    RandomGameTree(d, h, seed=s), depth=h
                ),
            )
    for seed in (0, 1):
        add(
            f"rand-d5h3s{seed}",
            lambda s=seed: SearchProblem(RandomGameTree(5, 3, seed=s), depth=3),
        )
    for degree, height in ((3, 3), (3, 4)):
        for seed in (0, 1):
            add(
                f"incr-d{degree}h{height}s{seed}",
                lambda d=degree, h=height, s=seed: SearchProblem(
                    IncrementalGameTree(d, h, seed=s, noise=0.4), depth=h
                ),
            )
    for seed in (0, 1, 2):
        add(
            f"synth-s{seed}",
            lambda s=seed: SearchProblem(SyntheticOrderedTree(3, 4, seed=s), depth=4),
        )
    for name, spec in (
        ("fig6", FIGURE6),
        ("fig7", FIGURE7),
        ("ragged", RAGGED),
        ("best-last", BEST_LAST),
        ("ties", ALL_TIES),
    ):
        add(
            f"explicit-{name}",
            lambda sp=spec: SearchProblem(
                ExplicitTree(sp), depth=ExplicitTree(sp).height
            ),
        )
    for depth in (2, 3, 4):
        add(
            f"tictactoe-d{depth}",
            lambda d=depth: SearchProblem(TicTacToe(), depth=d),
        )
    for cols, rows, depth in ((4, 4, 3), (5, 4, 3), (5, 4, 4)):
        add(
            f"connect4-{cols}x{rows}d{depth}",
            lambda c=cols, r=rows, d=depth: SearchProblem(ConnectFour(c, r), depth=d),
        )
    for heaps, depth in (((2, 3), 3), ((3, 4), 4), ((1, 2, 3), 5)):
        add(
            f"nim-{'_'.join(map(str, heaps))}d{depth}",
            lambda h=heaps, d=depth: SearchProblem(Nim(h), depth=d),
        )
    for name, root, depth in (("O1", O1_ROOT, 2), ("O2", O2_ROOT, 2), ("O1", O1_ROOT, 3)):
        add(
            f"othello-{name}d{depth}",
            lambda r=root, d=depth: SearchProblem(
                Othello(r), depth=d, sort_below_root=1
            ),
        )
    return cases


CASES = _cases()
assert len(CASES) >= 50, f"parity grid shrank to {len(CASES)} combos"


@pytest.mark.parametrize("make_problem", CASES)
def test_all_backends_agree(make_problem, engine_pools):
    problem = make_problem()
    # Vary processor count and cutover with the problem so the grid also
    # sweeps the protocol configuration, deterministically per case.
    knob = (problem.depth + len(type(problem.game).__name__)) % 3
    n = 1 + knob
    config = ERConfig(serial_depth=max(1, problem.depth - 2 - knob % 2))

    oracle = alphabeta(problem).value
    assert er_search(problem).value == oracle, "serial ER diverged"
    assert parallel_er(problem, n, config=config).value == oracle, (
        f"simulated parallel ER diverged (P={n}, {config.serial_depth=})"
    )
    threaded_value, _ = threaded_er(problem, n, config=config)
    assert threaded_value == oracle, (
        f"threaded ER diverged (P={n}, {config.serial_depth=})"
    )
    mp_result = multiproc_er(problem, n, config=config, pool=engine_pools(n))
    assert mp_result.value == oracle, (
        f"multiproc ER diverged (P={n}, {config.serial_depth=})"
    )


@pytest.mark.parametrize(
    "game, depth",
    [
        (ConnectFour(4, 4), 3),
        (TicTacToe(), 3),
        (Nim((2, 3)), 3),
        (ExplicitTree(BEST_LAST), 2),
    ],
    ids=["connect4", "tictactoe", "nim", "explicit"],
)
def test_engines_choose_the_same_move(game, depth):
    """Best-move agreement: exact values imply identical argmax and
    identical tie-breaks, so engine decisions must match across backends."""
    choices = [
        GameEngine(
            game,
            EngineConfig(algorithm=algorithm, n_processors=2, max_depth=depth),
        ).choose(game.root())
        for algorithm in ("alphabeta", "er", "parallel-er", "multiproc-er")
    ]
    reference = choices[0]
    for choice in choices[1:]:
        assert choice.move_index == reference.move_index
        assert choice.per_move_values == reference.per_move_values


@pytest.mark.parametrize("tree", ["O1", "R3"])
def test_serial_depth_zero_examines_what_serial_er_does(tree):
    """With the cutover at the root, one processor hands the whole tree to
    serial ER unexpanded, so every backend counts serial ER's nodes: a
    serial-subtree root is expanded once, by the serial search."""
    problem = table3_suite("reduced")[tree].problem()
    config = ERConfig(serial_depth=0)
    serial = er_search(problem)
    simulated = parallel_er(problem, 1, config=config)
    threaded_value, threaded_stats = threaded_er(problem, 1, config=config)
    assert simulated.value == threaded_value == serial.value
    assert simulated.stats.nodes_examined == serial.stats.nodes_examined
    assert threaded_stats.nodes_examined == serial.stats.nodes_examined
