"""Checks of the benchmark's own input generation and statistics.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
from repro.games.base import follow_path  # noqa: E402
from repro.serve import suite_catalog  # noqa: E402


def _requests(seed: int) -> list[tuple[float, str, str, tuple[int, ...]]]:
    catalog = suite_catalog("reduced")
    games = {name: catalog[name].make_game() for name in run.HOT_GAMES}
    positions = loadgen.walk_positions(
        seed, games, run.PRIMED_PER_GAME + run.FRESH_PER_GAME, run.PATH_LEN, run.MOVES
    )
    arrivals = loadgen.poisson_arrivals(seed, "fixed", positions, run.RATE, 2.0, run.MAX_DEPTH)
    return [
        (a.offset_s, a.request.request_id, a.request.workload, a.request.path)
        for a in arrivals
    ]


def test_same_seed_gives_same_requests() -> None:
    assert _requests(7) == _requests(7)


def test_different_seed_gives_different_requests() -> None:
    assert _requests(7) != _requests(8)


def test_arrival_rate_matches_the_offered_rate() -> None:
    arrivals = loadgen.poisson_arrivals(3, "fixed", [("O1", ())], 200.0, 50.0, 3)
    assert len(arrivals) == pytest.approx(200.0 * 50.0, rel=0.05)
    assert all(b.offset_s > a.offset_s for a, b in zip(arrivals, arrivals[1:]))


def test_positions_share_one_depth_and_are_distinct() -> None:
    catalog = suite_catalog("reduced")
    games = {name: catalog[name].make_game() for name in run.HOT_GAMES}
    positions = loadgen.walk_positions(1, games, 4, 2, (10, 12))
    assert len(positions) == len(set(positions)) == 4 * len(games)
    assert {len(path) for _, path in positions} == {2}
    for name, path in positions:
        moves = len(games[name].children(follow_path(games[name], list(path))))
        assert 10 <= moves <= 12


def test_fresh_positions_are_never_primed() -> None:
    positions = [(game, (i,)) for game in ("A", "B") for i in range(5)]
    primed, fresh = loadgen.split_fresh(3, positions, 2)
    assert sorted(primed + fresh) == sorted(positions)
    assert not set(primed) & set(fresh)
    assert sorted(game for game, _ in fresh) == ["A", "A", "B", "B"]
    assert loadgen.split_fresh(3, positions, 2) == (primed, fresh)


def test_percentile_needs_ten_samples_beyond_it() -> None:
    assert run.min_samples(0.5) == 20
    assert run.min_samples(0.9) == 100
    assert run.percentile(list(range(1, 21)), 0.5, "x") == 10
    with pytest.raises(run.BenchError):
        run.percentile(list(range(19)), 0.5, "x")
    with pytest.raises(run.BenchError):
        run.percentile(list(range(99)), 0.9, "x")


def test_benchmark_json_matches_the_runner() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
