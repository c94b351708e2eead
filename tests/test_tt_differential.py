"""Differential battery for the transposition-table subsystem.

Every backend (serial, simulated, threaded, multiprocess) is run in every
table mode (off / private / shared) over a grid of problems — random
trees, a synthetic ordered tree, and real games with genuine
transpositions (Connect Four, Othello) — and every root value must equal
the alpha-beta oracle's.  This is what makes the TT integration safe to
evolve: any unsound probe gate, store classification, or cross-process
keying bug lands here as a value mismatch.

Two more properties are pinned beyond value equality:

* **warm-table savings** — re-running with the same shared table answers
  whole subtrees from cache, so nodes examined must strictly drop while
  the value stays put (the mechanism behind ``speedup --tt shared``);
* **determinism** — identical run sequences from fresh tables produce
  identical node counts and hit counters, seed for seed.
"""

import pytest

from repro.cache import SimStripedTT, WorkerLocalTT, make_tt
from repro.core.er_parallel import ERConfig, parallel_er
from repro.core.serial_er import er_search
from repro.games.base import SearchProblem
from repro.games.connect4 import ConnectFour
from repro.games.othello import Othello
from repro.games.random_tree import RandomGameTree, SyntheticOrderedTree
from repro.parallel.multiproc import multiproc_er
from repro.parallel.threaded import threaded_er
from repro.search.alphabeta import alphabeta
from repro.search.transposition import TranspositionTable

TT_MODES = ("off", "private", "shared")


def battery_problems() -> list[tuple[str, SearchProblem]]:
    problems: list[tuple[str, SearchProblem]] = [
        (f"random-{seed}", SearchProblem(RandomGameTree(3, 5, seed=seed), depth=5))
        for seed in range(4)
    ]
    problems.append(
        ("ordered", SearchProblem(SyntheticOrderedTree(4, 5, seed=9), depth=5))
    )
    # Real games: genuine within-search transpositions (move permutations
    # reaching one board), so private/shared tables get real hits.
    problems.append(
        ("connect4", SearchProblem(ConnectFour(width=5, height=4), depth=4))
    )
    problems.append(("othello", SearchProblem(Othello(), depth=3)))
    return problems


BATTERY = battery_problems()
IDS = [name for name, _ in BATTERY]


def oracle(problem: SearchProblem) -> float:
    return alphabeta(problem).value


class TestSerialDifferential:
    """er_search against the oracle, with every table shape it accepts."""

    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_plain_table(self, name, problem):
        truth = oracle(problem)
        table = TranspositionTable(capacity=4096)
        assert er_search(problem, table=table).value == truth
        # Second search over the now-warm table: same value, fewer nodes.
        from repro.search.stats import SearchStats

        cold = er_search(problem).stats.nodes_examined
        warm_stats = SearchStats()
        assert er_search(problem, stats=warm_stats, table=table).value == truth
        assert warm_stats.nodes_examined < cold

    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_concurrent_tables(self, name, problem):
        truth = oracle(problem)
        assert er_search(problem, table=SimStripedTT(4096)).value == truth
        assert er_search(problem, table=WorkerLocalTT(4096).view(0)).value == truth


class TestSimDifferential:
    @pytest.mark.parametrize("mode", TT_MODES)
    @pytest.mark.parametrize("name,problem", BATTERY, ids=IDS)
    def test_every_mode_matches_oracle(self, name, problem, mode):
        truth = oracle(problem)
        tt = make_tt(mode)
        for n in (1, 2, 4):
            assert parallel_er(problem, n, tt=tt).value == truth

    def test_warm_shared_table_reduces_nodes(self):
        problem = SearchProblem(RandomGameTree(4, 6, seed=11), depth=6)
        truth = oracle(problem)
        tt = make_tt("shared")
        cold = parallel_er(problem, 2, tt=tt)
        warm = parallel_er(problem, 2, tt=tt)
        assert cold.value == truth and warm.value == truth
        assert warm.stats.nodes_examined < cold.stats.nodes_examined
        assert tt is not None and tt.hits > 0

    def test_deterministic_from_fresh_tables(self):
        problem = SearchProblem(RandomGameTree(3, 5, seed=7), depth=5)

        def sweep() -> tuple[tuple[int, float], ...]:
            tt = make_tt("shared")
            outcomes = []
            for n in (1, 2, 4):
                result = parallel_er(problem, n, tt=tt)
                outcomes.append((result.stats.nodes_examined, result.value))
            assert tt is not None
            outcomes.append((tt.hits, float(tt.stores)))
            return tuple(outcomes)

        assert sweep() == sweep()

    def test_extras_carry_table_counters(self):
        problem = SearchProblem(RandomGameTree(3, 4, seed=2), depth=4)
        result = parallel_er(problem, 2, tt=make_tt("shared"))
        for key in ("tt_hits", "tt_misses", "tt_stores", "tt_evictions", "tt_contended"):
            assert key in result.extras
        assert result.stats.tt_probes > 0


class TestStatsCountEveryProbe:
    """A run's ``tt_probes``/``tt_stores`` include its serial subtree
    searches, so under one shared table they equal the table's own tally."""

    @pytest.mark.parametrize("backend", ["sim", "threaded"])
    @pytest.mark.parametrize("name,problem", [BATTERY[0], BATTERY[6]], ids=[IDS[0], IDS[6]])
    def test_stats_match_table_counters(self, name, problem, backend):
        tt = make_tt("shared")
        config = ERConfig(serial_depth=1)
        if backend == "sim":
            stats = parallel_er(problem, 4, config=config, tt=tt).stats
        else:
            _, stats = threaded_er(problem, 4, config=config, tt=tt)
        counters = tt.counter_snapshot()
        assert stats.tt_stores > 0
        assert stats.tt_probes == counters["tt_hits"] + counters["tt_misses"]
        assert stats.tt_stores == counters["tt_stores"]


class TestThreadedDifferential:
    @pytest.mark.parametrize("mode", TT_MODES)
    @pytest.mark.parametrize(
        "name,problem",
        [BATTERY[0], BATTERY[4], BATTERY[5]],
        ids=[IDS[0], IDS[4], IDS[5]],
    )
    def test_every_mode_matches_oracle(self, name, problem, mode):
        truth = oracle(problem)
        tt = make_tt(mode)
        for n in (1, 2, 4):
            value, _stats = threaded_er(problem, n, tt=tt)
            assert value == truth


class TestMultiprocDifferential:
    @pytest.mark.parametrize("mode", TT_MODES)
    def test_every_mode_matches_oracle(self, mode):
        problem = SearchProblem(RandomGameTree(4, 5, seed=13), depth=5)
        truth = oracle(problem)
        result = multiproc_er(problem, 2, tt_mode=mode)
        assert result.value == truth
        if mode != "off":
            assert result.stats.tt_probes > 0
        # The ledger's extras contract: the coordinator's task counters
        # close (the short-lived pool's own counters must not leak in),
        # and the segment's cumulative counters appear in shared mode only.
        extras = result.extras
        assert extras["tasks_submitted"] > 0
        assert extras["tasks_submitted"] == (
            extras["tasks_applied"] + extras["tasks_discarded"] + extras["tasks_orphaned"]
        )
        assert ("tt_hits" in extras) == (mode == "shared")
        assert ("tt_stores" in extras) == (mode == "shared")
