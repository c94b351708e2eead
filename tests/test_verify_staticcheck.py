"""Invariant lint: the repo passes, and seeded violations are caught.

``check_repo`` gating the real tree is only trustworthy if the rules
actually fire, so each rule is also exercised on a synthetic source with
a planted violation.
"""

from __future__ import annotations

import dataclasses
import gc
import textwrap
from pathlib import Path

import pytest

from repro.core.er_parallel import ERConfig, parallel_er
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import aggregate, observing, probe
from repro.obs import events as obs_events
from repro.obs.critpath import ScheduleRecorder
from repro.obs.live import LiveFeed
from repro.obs.registry import MetricsRegistry, feed_event
from repro.parallel.multiproc import multiproc_er
from repro.sim.locks import SimLock
from repro.sim.ops import LOSS_CLASSES, Acquire, Compute, Op, Release, WaitWork
from repro.verify.flow import analyze_sources
from repro.verify.staticcheck import (
    LintFinding,
    check_eval_parity_coverage,
    check_file,
    check_repo,
)


def _src(body: str) -> str:
    return textwrap.dedent(body).lstrip("\n")


# ---------------------------------------------------------------------------
# The real repository satisfies every invariant.
# ---------------------------------------------------------------------------


def test_repo_is_clean() -> None:
    findings = check_repo()
    assert findings == [], "\n".join(str(f) for f in findings)


# ---------------------------------------------------------------------------
# The retired VER001 (per-function lock discipline) fixtures.  The flow
# analyser is the one check of the locking protocol now; each fixture is
# a whole-program source shaped like the real worker, which gets its
# nodes from ``ctx`` and takes ``(ctx, stats, pid)``.  The tests keep
# their ids.
# ---------------------------------------------------------------------------


def _flow(body: str) -> list[tuple[str, str]]:
    findings = analyze_sources({"er_parallel.py": _src(body)})
    return [(f.rule, f.signature) for f in findings]


def test_ver001_unlocked_attribute_store() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            node = ctx.pop_work()
            yield Compute(1.0)
            node.done = True
        """
    )
    assert findings == [("VER102", "unguarded:done")]


def test_ver001_locked_store_is_fine() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            node = ctx.pop_work()
            yield Acquire(ctx.tree_lock)
            node.done = True
            yield Release(ctx.tree_lock)
        """
    )
    assert findings == []


def test_ver001_generator_exits_holding_lock() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            yield Acquire(ctx.tree_lock)
            yield Compute(1.0)
        """
    )
    assert findings == [("VER101", "exit-imbalance:tree_lock")]


def test_ver001_release_without_acquire() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            yield Release(ctx.tree_lock)
        """
    )
    assert findings == [("VER101", "release-unheld:tree_lock")]


def test_ver001_wait_while_holding_lock() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            yield Acquire(ctx.heap_lock)
            yield WaitWork(ctx.signal)
            yield Release(ctx.heap_lock)
        """
    )
    assert findings == [("VER105", "wait-holding:heap_lock")]


def test_ver001_branches_must_agree_on_held_locks() -> None:
    findings = _flow(
        """
        def _worker(ctx, stats, pid=0):
            if ctx.flag:
                yield Acquire(ctx.tree_lock)
            else:
                yield Compute(1.0)
            yield Compute(1.0)
        """
    )
    assert ("VER101", "divergence:tree_lock|") in findings


def test_ver001_tree_method_needs_tree_lock() -> None:
    # One call site, under the heap lock alone: every write to the node
    # agrees on its guard, but the guard is not the tree lock.  The rule
    # comes from the writes, not from a table of method names.
    findings = _flow(
        """
        class _Context:
            def combine(self, node, pushes):
                node.value = max(node.value, 0)
                node.done = True
                return 1

        def _worker(ctx, stats, pid=0):
            yield Acquire(ctx.heap_lock)
            node = ctx.pop_work()
            ctx.combine(node, [])
            yield Release(ctx.heap_lock)
        """
    )
    assert findings == [
        ("VER102", "node-off-tree:value:heap"),
        ("VER102", "node-off-tree:done:heap"),
    ]


# ---------------------------------------------------------------------------
# VER004: multiproc boundary picklable-by-construction.
# ---------------------------------------------------------------------------


def test_ver004_lambda_submission_flagged() -> None:
    source = _src(
        """
        def run(pool, payload):
            return pool.submit(lambda: payload)
        """
    )
    findings = check_file("parallel/multiproc_fake.py", source=source, rules={"VER004"})
    assert any(f.rule == "VER004" for f in findings)


def test_ver004_module_function_submission_allowed() -> None:
    source = _src(
        """
        def _run_task(payload):
            return payload

        def run(pool, payload):
            return pool.submit(_run_task, payload)
        """
    )
    assert check_file("parallel/multiproc_fake.py", source=source, rules={"VER004"}) == []


def test_ver004_lambda_process_target_and_initializer_flagged() -> None:
    source = _src(
        """
        def _init():
            pass

        def _main():
            pass

        def start(ctx):
            ctx.Process(target=lambda: None).start()
            ctx.Process(target=_main).start()
            return TaskChannel(2, ctx, initializer=lambda: None)

        def start_ok(ctx):
            return TaskChannel(2, ctx, initializer=_init)
        """
    )
    findings = sorted(
        check_file("parallel/multiproc_fake.py", source=source, rules={"VER004"}),
        key=lambda f: f.line,
    )
    assert [(f.rule, f.line) for f in findings] == [("VER004", 8), ("VER004", 10)]
    assert "target=" in findings[0].message and "initializer=" in findings[1].message


def test_ver004_own_method_call_is_not_a_submission() -> None:
    source = _src(
        """
        class Coordinator:
            def submit(self, node):
                return self.executor.submit(lambda: node)

            def step(self, node):
                self.submit(node)
        """
    )
    findings = check_file("parallel/multiproc_fake.py", source=source, rules={"VER004"})
    assert [(f.rule, f.line) for f in findings] == [("VER004", 3)]


# ---------------------------------------------------------------------------
# VER007: the differential battery names every batch_eval implementation.
# ---------------------------------------------------------------------------

_GAME_WITH_BATCH = _src(
    """
    class Checkers:
        def evaluate(self, position):
            return 0.0

        def batch_eval(self, positions):
            return [0.0 for _ in positions]

    class Draughts:
        def batch_eval(self, positions):
            return [1.0 for _ in positions]
    """
)


def test_ver007_uncovered_implementation_flagged() -> None:
    battery = "def test_checkers():\n    game = Checkers()\n"
    findings = check_eval_parity_coverage(
        [("games/checkers.py", _GAME_WITH_BATCH)], battery
    )
    assert len(findings) == 1
    assert findings[0].rule == "VER007"
    assert "Draughts" in findings[0].message
    assert "never named" in findings[0].message


def test_ver007_full_coverage_passes() -> None:
    battery = "GAMES = [Checkers, Draughts]\n"
    assert (
        check_eval_parity_coverage([("games/checkers.py", _GAME_WITH_BATCH)], battery)
        == []
    )


def test_ver007_protocol_declaration_skipped() -> None:
    source = _src(
        """
        class Game(Protocol):
            def batch_eval(self, positions):
                ...

        class Board(typing.Protocol):
            def batch_eval(self, positions):
                ...
        """
    )
    assert check_eval_parity_coverage([("games/base.py", source)], "") == []


def test_ver007_class_without_batch_eval_ignored() -> None:
    source = _src(
        """
        class ScalarOnly:
            def evaluate(self, position):
                return 0.0
        """
    )
    assert check_eval_parity_coverage([("games/scalar.py", source)], "") == []


# ---------------------------------------------------------------------------
# VER008: determinism — wall clock / randomness only through sanctioned
# seams, in sim/, core/, obs/ and cache/.
# ---------------------------------------------------------------------------


def test_ver008_wall_clock_call_in_cache_flagged(tmp_path: Path) -> None:
    source = _src(
        """
        import time

        def stamp(entry):
            entry.at = time.time()
        """
    )
    module = tmp_path / "src" / "repro" / "cache" / "fake.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    findings = check_repo(str(tmp_path))
    assert [(f.rule, Path(f.path).name, f.line) for f in findings] == [
        ("VER008", "fake.py", 4)
    ]
    assert "time.time" in findings[0].message


def test_ver008_unseeded_random_instance_flagged() -> None:
    source = _src(
        """
        import random

        def rng():
            return random.Random()

        def seeded(seed):
            return random.Random(seed), random.Random(x=seed)
        """
    )
    findings = check_file("core/fake.py", source=source, rules={"VER008"})
    assert [(f.rule, f.line) for f in findings] == [("VER008", 4)]
    assert "pass it a seed" in findings[0].message


def test_ver008_bare_clock_reference_flagged() -> None:
    # A stored default clock is nondeterminism deferred, not avoided.
    source = _src(
        """
        import time

        def make_timer(clock=None):
            return clock if clock is not None else time.perf_counter
        """
    )
    findings = check_file("sim/fake.py", source=source, rules={"VER008"})
    assert [f.rule for f in findings] == ["VER008"]
    assert "time.perf_counter" in findings[0].message


def test_ver008_random_call_flagged_seeded_random_allowed() -> None:
    source = _src(
        """
        import random

        def jitter():
            return random.random()

        def rng(seed):
            return random.Random(seed)
        """
    )
    findings = check_file("core/fake.py", source=source, rules={"VER008"})
    assert [f.rule for f in findings] == ["VER008"]
    assert findings[0].line == 4


def test_ver008_sanctioned_seams_allowed() -> None:
    # The event bus's injectable-clock default and the ledger timestamp
    # are the documented injection points.
    source = _src(
        """
        import time

        class EventBus:
            def __init__(self, clock=None):
                self._clock = clock if clock is not None else time.perf_counter

            def use_clock(self, clock):
                prev = self._clock
                self._clock = clock if clock is not None else time.perf_counter
                return prev
        """
    )
    assert check_file("obs/events.py", source=source, rules={"VER008"}) == []
    # The same reference outside its sanctioned function is flagged.
    source_bad = source.replace("def use_clock", "def other_method")
    findings = check_file("obs/events.py", source=source_bad, rules={"VER008"})
    assert [f.rule for f in findings] == ["VER008"]


# ---------------------------------------------------------------------------
# Rule inference.
# ---------------------------------------------------------------------------


def test_rules_inferred_from_filename() -> None:
    source = _src(
        """
        import time

        def run(pool):
            pool.submit(lambda: None)
            return time.time()
        """
    )
    # Deterministic code gets VER008 by inference.
    rules = {f.rule for f in check_file("er_parallel.py", source=source)}
    assert rules == {"VER008"}
    # Multiproc files get VER004 only (the coordinator measures wall time).
    rules = {f.rule for f in check_file("multiproc.py", source=source)}
    assert rules == {"VER004"}


def test_finding_str_is_tool_style() -> None:
    finding = LintFinding("VER008", "engine.py", 12, "boom")
    assert str(finding) == "engine.py:12: VER008: boom"


# ---------------------------------------------------------------------------
# Retired rules VER005, VER006 and VER009.  They kept hand-written op and
# event tables in sync; the tables are gone.  Each op class now declares
# its metric and loss class (repro.sim.ops) and each event type its metric
# (repro.obs.events.EVENT_TYPES).  These tests keep the rules' ids and pin
# the same invariants on those declarations.  The op half of retired
# VER002 (every op a frozen dataclass) rides on the first of them; its
# engine-arm half is the flow analyser's VER104.
# ---------------------------------------------------------------------------


def _declared_ops() -> list[type[Op]]:
    # A class whose declaration raised is still linked into
    # ``__subclasses__`` until the collector frees it.
    gc.collect()
    return Op.__subclasses__()


def _ev_constants() -> set[str]:
    return {value for name, value in vars(obs_events).items() if name.startswith("EV_")}


def test_ver005_full_coverage_passes() -> None:
    # Frozen: a worker cannot mutate an op after yielding it.
    assert all(
        dataclasses.is_dataclass(op) and op.__dataclass_params__.frozen  # type: ignore[attr-defined]
        for op in _declared_ops()
    )
    metrics = [op.metric for op in _declared_ops()]
    assert metrics and all(m.startswith("sim.ops.") for m in metrics)
    assert len(set(metrics)) == len(metrics)
    assert set(obs_events.EVENT_TYPES) == _ev_constants()
    assert all(obs_events.EVENT_TYPES.values())


def test_ver005_uncovered_op_flagged() -> None:
    with pytest.raises(TypeError, match="metric"):

        class Ghost(Op, loss="busy"):
            pass


def test_ver005_uncovered_event_and_dead_mappings_flagged() -> None:
    bus = obs_events.EventBus(clock=lambda: 0.0)
    with pytest.raises(ValueError, match="unknown event type"):
        bus.emit("ghost")
    assert bus.events == []
    # Every declared type is an EV_* constant, and every constant declared.
    assert _ev_constants() == set(obs_events.ALL_EVENT_TYPES)


def test_ver005_missing_mapping_dict_flagged() -> None:
    with pytest.raises(TypeError, match="metric.*loss"):

        class Ghost(Op):
            pass


def test_ver006_full_coverage_passes() -> None:
    assert {op.loss for op in _declared_ops()} <= set(LOSS_CLASSES)
    assert {Compute.loss, Acquire.loss, Release.loss, WaitWork.loss} == set(LOSS_CLASSES)


def test_ver006_uncovered_op_flagged() -> None:
    with pytest.raises(TypeError, match="loss"):

        class Ghost(Op, metric="sim.ops.ghost"):
            pass


def test_ver006_dead_mapping_and_bad_class_flagged() -> None:
    with pytest.raises(TypeError, match="waiting-around"):

        class Ghost(Op, metric="sim.ops.ghost", loss="waiting-around"):
            pass


def test_ver006_non_literal_key_flagged() -> None:
    # Attribution follows each op's declared loss class, never its name:
    # only a positive busy charge becomes a critical-path interval.
    recorder = ScheduleRecorder()
    p = probe.Probe(schedule=recorder)
    p.dispatched(0, Compute(2.0, tag="expansion"), 1.0)
    p.dispatched(0, Compute(0.0), 3.0)
    p.dispatched(0, Acquire(SimLock("tree")), 3.0)
    assert [(iv.kind, iv.start, iv.end, iv.tag) for iv in recorder.intervals] == [
        ("busy", 1.0, 3.0, "expansion")
    ]


def test_ver006_missing_mapping_dict_flagged() -> None:
    # A derived op declares its own metric and loss class; nothing is
    # inherited silently.
    with pytest.raises(TypeError):

        class Sub(Compute):
            pass


def test_ver009_covered_emissions_pass() -> None:
    problem = SearchProblem(RandomGameTree(3, 4, seed=5), depth=4)
    with observing() as bus:
        multiproc_er(problem, n_workers=1, config=ERConfig(serial_depth=1))
    emitted = {event.etype for event in bus.events}
    assert obs_events.EV_TASK_SUBMIT in emitted and obs_events.EV_TASK_RESULT in emitted
    assert emitted <= set(obs_events.EVENT_TYPES)


def test_ver009_undefined_event_flagged() -> None:
    bus = obs_events.EventBus(clock=lambda: 0.0)
    with pytest.raises(ValueError, match="task-cancelled"):
        bus.emit("task-cancelled", task=3)


def test_ver009_unmetered_event_flagged() -> None:
    for etype, metric in obs_events.EVENT_TYPES.items():
        registry = MetricsRegistry()
        feed_event(registry, obs_events.ObsEvent(etype, 0.0, 0))
        assert registry.collect()[metric] == 1, etype


def test_ver009_missing_feed_event_flagged() -> None:
    # The live feed and the post-hoc aggregation agree on a real run.
    feed = LiveFeed()
    problem = SearchProblem(RandomGameTree(3, 4, seed=5), depth=4)
    with observing() as bus:
        bus.attach_live(feed.on_event)
        parallel_er(problem, 2, config=ERConfig(serial_depth=2))
    post_hoc = aggregate(bus).collect()
    for name, value in feed.collect().items():
        assert post_hoc[name] == value, name


def test_ver009_aggregate_bypassing_feed_event_flagged() -> None:
    bus = obs_events.EventBus(clock=lambda: 0.0)
    bus.emit(obs_events.EV_TASK_SUBMIT, task=-1, path="0", kind="eval")
    bus.emit(obs_events.EV_TASK_RESULT, task=-1, path="0", applied=True, duration=0.5, worker=0)
    bus.count_op(Compute.metric)
    by_feed = MetricsRegistry()
    for event in bus.events:
        feed_event(by_feed, event)
    expected = {Compute.metric: 1, **by_feed.collect()}
    assert aggregate(bus).collect() == expected
