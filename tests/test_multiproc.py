"""Tests for the multiprocess ER backend (correctness and accounting)."""

from concurrent.futures import Future

import pytest

from repro.core.er_parallel import E_NODE, R_NODE, ERConfig
from repro.core.serial_er import er_search
from repro.engine import EngineConfig, GameEngine
from repro.errors import SearchError, SimulationError
from repro.games.base import NEG_INF, SearchProblem
from repro.games.connect4 import ConnectFour
from repro.games.explicit import FIGURE6, FIGURE7, ExplicitTree
from repro.games.nim import LOSS, Nim
from repro.games.othello.game import O1_ROOT, Othello
from repro.games.tictactoe import TicTacToe
from repro.obs import events as obs_events
from repro.parallel.multiproc import (
    IN_FLIGHT_PER_WORKER,
    Coordinator,
    MultiprocResult,
    default_serial_depth,
    format_scaling_table,
    multiproc_er,
    scaling_run,
)
from repro.search.alphabeta import alphabeta
from repro.search.negamax import negamax
from repro.search.stats import SearchStats
from repro.workloads.suite import table3_suite

from conftest import random_problem


@pytest.fixture(scope="module")
def pool(engine_pools):
    """One shared two-worker pool so each test does not pay process startup."""
    return engine_pools(2)


class _InFlightRecorder:
    """Pool wrapper recording the peak count of tasks submitted but
    whose result the coordinator has not yet received."""

    def __init__(self, pool):
        self._pool = pool
        self.in_flight = 0
        self.peak = 0

    def __getattr__(self, name):
        return getattr(self._pool, name)

    @property
    def executor(self):
        return self

    def wait(self, futures, timeout=None):
        return self._pool.executor.wait(futures, timeout)

    def submit(self, fn, *args):
        future = self._pool.executor.submit(fn, *args)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        future.result = self._received(future.result)
        return future

    def _received(self, result):
        def wrapped(timeout=None):
            self.in_flight -= 1
            return result(timeout)

        return wrapped


class _InlineExecutor:
    """Executor stand-in: runs each task in this process at submit time
    and returns an already completed future."""

    def __init__(self):
        self.outcomes = []

    def submit(self, fn, *args):
        outcome = fn(*args)
        self.outcomes.append(outcome)
        future = Future()
        future.set_result(outcome)
        return future

    def wait(self, futures, timeout=None):
        return [future for future in futures if future.done()]


class _HeldExecutor:
    """Executor stand-in whose tasks run only when the coordinator blocks:
    a blocking :meth:`wait` completes the oldest held task, a
    non-blocking one completes nothing."""

    def __init__(self):
        self.held = []
        self.peak = 0

    def submit(self, fn, *args):
        future = Future()
        self.held.append((future, fn, args))
        self.peak = max(self.peak, len(self.held))
        return future

    def wait(self, futures, timeout=None):
        if timeout == 0:
            return []
        future, fn, args = self.held.pop(0)
        future.set_result(fn(*args))
        return [future]


class _RecordingExecutor(_InlineExecutor):
    """Inline executor that records each task's payload with the node it
    was shipped for, read from the pending map the coordinator passes to
    :meth:`wait` (every submit is followed by a wait before the run can
    end)."""

    def __init__(self):
        super().__init__()
        self._payloads = {}
        self.shipped = []

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self._payloads[future] = args[0]
        return future

    def wait(self, futures, timeout=None):
        for future, (node, _) in futures.items():
            payload = self._payloads.pop(future, None)
            if payload is not None:
                self.shipped.append((payload, node))
        return super().wait(futures, timeout)


def _coordinator(executor, serial_depth=1, n_workers=1, seed=1):
    problem = random_problem(3, 4, seed)
    coordinator = Coordinator(
        problem, n_workers, executor, config=ERConfig(serial_depth=serial_depth)
    )
    return problem, coordinator


def _root_child(coordinator, index, ntype):
    """Pop and expand the root by hand, then create one child of it."""
    ctx = coordinator.ctx
    root, _ = ctx.pop_work()
    ctx.expand_positions(root, coordinator.stats)
    return root, ctx.make_child(root, index, ntype)


class TestCoordinator:
    def test_moot_result_is_wasted_and_not_applied(self):
        executor = _InlineExecutor()
        _, coordinator = _coordinator(executor)
        ctx = coordinator.ctx
        root, child = _root_child(coordinator, 0, E_NODE)
        coordinator.submit(child, ctx.window(child))
        # A cutoff elsewhere finishes the root while the task runs.
        root.done = True
        stale = ctx.counters["stale_discards"]
        coordinator.drain(block=False)
        assert coordinator.counters["tasks_discarded"] == 1
        assert coordinator.counters["tasks_applied"] == 0
        assert ctx.counters["stale_discards"] == stale + 1
        assert not child.done and child.value == NEG_INF
        (outcome,) = executor.outcomes
        busy = outcome[4] - outcome[3]
        assert coordinator.ledger.per_worker[0]["wasted"] == busy
        assert coordinator.ledger.per_worker[0]["applied"] == 0.0
        assert coordinator.result().busy_wasted_seconds == busy

    def test_refuted_r_node_finishes_without_a_task(self):
        executor = _InlineExecutor()
        _, coordinator = _coordinator(executor)
        ctx = coordinator.ctx
        root, child = _root_child(coordinator, 1, R_NODE)
        ctx.expand_positions(child, coordinator.stats)
        child.next_child = 1  # its first child is already evaluated
        root.value = 5.0  # the root holds 5, so the child's beta is -5,
        child.value = 10.0  # which the child's tentative value refutes
        coordinator.submit(child, ctx.window(child))
        assert executor.outcomes == [] and not coordinator.pending
        assert coordinator.counters["tasks_submitted"] == 0
        assert child.done and child.value == 10.0

    def test_in_flight_never_exceeds_bound(self):
        executor = _HeldExecutor()
        problem, coordinator = _coordinator(executor, serial_depth=2, n_workers=2)
        coordinator.run()
        assert coordinator.result().value == negamax(problem).value
        # Without the bound the coordinator would drain the heap first.
        assert executor.peak == IN_FLIGHT_PER_WORKER * 2

    def test_empty_heap_with_nothing_in_flight_deadlocks(self):
        _, coordinator = _coordinator(_InlineExecutor())
        coordinator.ctx.pop_work()  # the root: the heap is now empty
        with pytest.raises(SimulationError, match="deadlocked"):
            coordinator.run()

    def test_every_applied_task_result_has_node_done(self, pool):
        problem = random_problem(3, 4, seed=5)
        with obs_events.observing() as bus:
            multiproc_er(problem, 2, config=ERConfig(serial_depth=2), pool=pool)
        applied = {
            event.data["path"]
            for event in bus.events
            if event.etype == obs_events.EV_TASK_RESULT and event.data["applied"]
        }
        done = {
            event.data["path"]
            for event in bus.events
            if event.etype == obs_events.EV_NODE_DONE
        }
        assert applied and applied <= done


class TestShipWhole:
    """A node that ships whole as an ``eval`` task is never expanded by
    the coordinator; a ``refute`` task still carries its remaining
    children."""

    @pytest.mark.parametrize(
        "problem",
        [
            random_problem(3, 5, seed=1),
            SearchProblem(Othello(O1_ROOT), depth=4, sort_below_root=3),
        ],
        ids=["random", "othello"],
    )
    def test_eval_payload_nodes_are_unexpanded(self, problem):
        executor = _RecordingExecutor()
        coordinator = Coordinator(
            problem, 2, executor, config=ERConfig(serial_depth=2, max_e_children=2)
        )
        coordinator.run()
        assert coordinator.result().value == alphabeta(problem).value
        kinds = {payload[0] for payload, _ in executor.shipped}
        assert kinds == {"eval", "refute"}
        assert len(executor.shipped) == coordinator.counters["tasks_submitted"]
        for payload, node in executor.shipped:
            if payload[0] == "eval":
                assert node.child_positions is None
                assert payload[1].game.root() == node.position
            else:
                remaining = payload[2]
                assert remaining
                assert remaining == node.child_positions[-len(remaining):]

    def test_game_over_position_at_serial_depth_is_searched_by_the_worker(
        self, engine_pools
    ):
        """Nim (1, 1): the e-node at ply 2 has no stones left, two plies
        above the horizon.  It ships unexpanded and the worker's serial
        search scores the loss."""
        problem = SearchProblem(Nim((1, 1)), depth=4)
        config = ERConfig(serial_depth=2)
        oracle = alphabeta(problem).value
        executor = _RecordingExecutor()
        coordinator = Coordinator(problem, 1, executor, config=config)
        coordinator.run()
        assert coordinator.result().value == oracle
        (game_over,) = [
            node for payload, node in executor.shipped if node.position == ()
        ]
        assert game_over.ply == 2 < problem.depth
        assert game_over.child_positions is None and not game_over.is_leaf
        assert game_over.value == LOSS
        result = multiproc_er(problem, 1, config=config, pool=engine_pools(1))
        assert result.value == oracle
        assert result.extras["tasks_submitted"] == 1


class TestCorrectness:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_negamax_on_random_trees(self, engine_pools, n_workers):
        for seed in range(3):
            problem = random_problem(3, 4, seed)
            truth = negamax(problem).value
            recorder = _InFlightRecorder(engine_pools(n_workers))
            result = multiproc_er(
                problem, n_workers, config=ERConfig(serial_depth=2), pool=recorder
            )
            assert result.value == truth
            assert result.stats.nodes_generated > 0
            # The heap, not the executor's queue, picks each task.
            assert 0 < recorder.peak <= IN_FLIGHT_PER_WORKER * n_workers

    def test_default_config_offloads_subtrees(self, pool):
        problem = random_problem(3, 5, seed=1)
        truth = negamax(problem).value
        result = multiproc_er(problem, 2, pool=pool)
        assert result.value == truth
        assert result.extras["tasks_submitted"] > 0

    def test_serial_depth_zero_ships_the_root(self, pool):
        """The root itself is a serial task: one worker does everything."""
        problem = random_problem(2, 4, seed=3)
        result = multiproc_er(
            problem, 2, config=ERConfig(serial_depth=0), pool=pool
        )
        assert result.value == negamax(problem).value
        assert result.extras["tasks_submitted"] == 1

    def test_no_cutover_runs_in_coordinator(self, pool):
        """With the simulator's no-cutover default every node is processed
        by the coordinator; the pool is never used but values still agree."""
        problem = random_problem(2, 3, seed=0)
        result = multiproc_er(
            problem, 2, config=ERConfig(serial_depth=1_000_000), pool=pool
        )
        assert result.value == negamax(problem).value
        assert result.extras["tasks_submitted"] == 0

    def test_refutation_tasks_exercised(self, pool):
        """Deep trees with a mid cutover hit the remaining-children path."""
        exercised = 0
        for seed in range(4):
            problem = random_problem(3, 5, seed)
            truth = negamax(problem).value
            result = multiproc_er(
                problem,
                2,
                config=ERConfig(serial_depth=2, max_e_children=2),
                pool=pool,
            )
            assert result.value == truth
            exercised += result.extras["refutation_conversions"]
        assert exercised > 0

    def test_explicit_paper_trees(self, pool):
        for spec, expected in ((FIGURE6, 9.0), (FIGURE7, -11.0)):
            game = ExplicitTree(spec)
            problem = SearchProblem(game, depth=game.height)
            result = multiproc_er(
                problem, 2, config=ERConfig(serial_depth=1), pool=pool
            )
            assert result.value == expected

    def test_real_games(self, pool):
        for problem in (
            SearchProblem(TicTacToe(), depth=4),
            SearchProblem(ConnectFour(5, 4), depth=4),
            SearchProblem(Othello(O1_ROOT), depth=3, sort_below_root=2),
        ):
            truth = negamax(problem).value
            result = multiproc_er(
                problem, 2, config=ERConfig(serial_depth=2), pool=pool
            )
            assert result.value == truth

    @pytest.mark.parametrize("tree", ["O1", "R3"])
    def test_one_task_counts_nodes_like_serial_er(self, engine_pools, tree):
        """At serial depth 0 the root ships whole, so the merged count is
        the worker's serial ER count: the root is counted once."""
        problem = table3_suite("reduced")[tree].problem()
        result = multiproc_er(
            problem, 1, config=ERConfig(serial_depth=0), pool=engine_pools(1)
        )
        assert result.extras["tasks_submitted"] == 1
        assert result.stats.nodes_examined == er_search(problem).stats.nodes_examined

    def test_agrees_with_serial_er_stats_scale(self, pool):
        """Merged node accounting lands in the same ballpark as serial ER
        (same cost model, so the numbers are directly comparable)."""
        problem = random_problem(3, 5, seed=7)
        serial = er_search(problem)
        result = multiproc_er(
            problem,
            2,
            config=ERConfig(serial_depth=2, max_e_children=1),
            pool=pool,
        )
        assert result.value == serial.value
        assert result.stats.leaf_evals >= serial.stats.leaf_evals * 0.5


class TestAccounting:
    def test_loss_fractions_partition_processor_time(self, pool):
        problem = random_problem(3, 5, seed=2)
        result = multiproc_er(
            problem, 2, config=ERConfig(serial_depth=2), pool=pool
        )
        assert result.wall_time > 0
        moot_fraction = result.busy_wasted_seconds / result.processor_seconds
        for fraction in (
            result.starvation_fraction,
            result.interference_fraction,
            moot_fraction,
        ):
            assert 0.0 <= fraction <= 1.0
        busy_fraction = result.busy_applied_seconds / result.processor_seconds
        total = (
            busy_fraction
            + moot_fraction
            + result.starvation_fraction
            + result.interference_fraction
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_task_counters_close(self, pool):
        problem = random_problem(3, 4, seed=5)
        result = multiproc_er(
            problem, 2, config=ERConfig(serial_depth=2), pool=pool
        )
        extras = result.extras
        assert extras["tasks_submitted"] == (
            extras["tasks_applied"]
            + extras["tasks_discarded"]
            + extras["tasks_orphaned"]
        )
        assert extras["tasks_applied"] > 0

    def test_speedup_and_efficiency_math(self):
        result = MultiprocResult(
            value=0.0, n_workers=4, wall_time=2.0, stats=SearchStats()
        )
        assert result.speedup(4.0) == pytest.approx(2.0)
        assert result.efficiency(4.0) == pytest.approx(0.5)


class TestScalingHelpers:
    def test_scaling_run_and_table(self):
        problem = random_problem(3, 4, seed=0)
        serial_seconds, points = scaling_run(
            problem, (1, 2), config=ERConfig(serial_depth=2)
        )
        assert serial_seconds > 0
        assert [p.n_workers for p in points] == [1, 2]
        truth = negamax(problem).value
        assert all(p.result.value == truth for p in points)
        table = format_scaling_table("T1", serial_seconds, points)
        assert "T1" in table and "P=1" in table and "speedup" in table
        assert "starvation=" in table and "moot=" in table

    def test_default_serial_depth_bounds(self):
        assert default_serial_depth(9) == 6
        assert default_serial_depth(2) == 1
        assert default_serial_depth(0) == 1


class TestEngineBackend:
    def test_engine_multiproc_matches_er(self):
        game = ConnectFour(4, 4)
        base = EngineConfig(algorithm="er", max_depth=3)
        multi = EngineConfig(algorithm="multiproc-er", n_processors=2, max_depth=3)
        choice_er = GameEngine(game, base).choose(game.root())
        choice_mp = GameEngine(game, multi).choose(game.root())
        assert choice_mp.move_index == choice_er.move_index
        assert choice_mp.per_move_values == choice_er.per_move_values


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(SearchError):
            multiproc_er(random_problem(2, 2, 0), 0)

    @pytest.mark.parametrize("pool_size, n_workers", [(3, 1), (1, 3)])
    def test_rejects_worker_count_mismatch(self, engine_pools, pool_size, n_workers):
        """The loss accounting charges n_workers processors, so it must be
        the pool's own count: neither idle extras nor phantom workers."""
        with pytest.raises(SearchError, match="pool of"):
            multiproc_er(
                random_problem(2, 3, 0), n_workers, pool=engine_pools(pool_size)
            )

    def test_distributed_heap_is_coordinator_hosted(self, pool):
        """The distributed_heap flag is ignored, not an error."""
        problem = random_problem(2, 4, seed=1)
        result = multiproc_er(
            problem,
            2,
            config=ERConfig(serial_depth=2, distributed_heap=True),
            pool=pool,
        )
        assert result.value == negamax(problem).value
        assert result.extras["steals"] == 0
