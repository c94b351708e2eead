"""Invariant lint: the repo passes, and seeded violations are caught.

``check_repo`` gating the real tree is only trustworthy if the rules
actually fire, so each rule is also exercised on a synthetic source with
a planted violation.
"""

from __future__ import annotations

import textwrap

from repro.verify.staticcheck import (
    LintFinding,
    check_critpath_coverage,
    check_eval_parity_coverage,
    check_file,
    check_lock_discipline,
    check_obs_coverage,
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
# VER001: lock discipline in worker generators.
# ---------------------------------------------------------------------------


def test_ver001_unlocked_attribute_store() -> None:
    source = _src(
        """
        def _worker(ctx, node):
            yield Compute(1.0)
            node.done = True
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("no lock held" in f.message for f in findings)


def test_ver001_locked_store_is_fine() -> None:
    source = _src(
        """
        def _worker(ctx, node):
            yield Acquire(ctx.tree_lock)
            node.done = True
            yield Release(ctx.tree_lock)
        """
    )
    assert check_lock_discipline("er_parallel.py", source) == []


def test_ver001_generator_exits_holding_lock() -> None:
    source = _src(
        """
        def _worker(ctx):
            yield Acquire(ctx.tree_lock)
            yield Compute(1.0)
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("can finish still holding" in f.message for f in findings)


def test_ver001_release_without_acquire() -> None:
    source = _src(
        """
        def _worker(ctx):
            yield Release(ctx.tree_lock)
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("without acquiring" in f.message for f in findings)


def test_ver001_wait_while_holding_lock() -> None:
    source = _src(
        """
        def _worker(ctx):
            yield Acquire(ctx.heap_lock)
            yield WaitWork(ctx.signal)
            yield Release(ctx.heap_lock)
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("deadlock" in f.message for f in findings)


def test_ver001_branches_must_agree_on_held_locks() -> None:
    source = _src(
        """
        def _worker(ctx, flag):
            if flag:
                yield Acquire(ctx.tree_lock)
            else:
                yield Compute(1.0)
            yield Compute(1.0)
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("branches disagree" in f.message for f in findings)


def test_ver001_tree_method_needs_tree_lock() -> None:
    source = _src(
        """
        def _worker(ctx, node, stats):
            yield Acquire(ctx.heap_lock)
            ctx.combine(node, stats)
            yield Release(ctx.heap_lock)
        """
    )
    findings = check_lock_discipline("er_parallel.py", source)
    assert any("without the tree lock" in f.message for f in findings)


# ---------------------------------------------------------------------------
# VER003: determinism (no wall clock, no unseeded randomness).
# ---------------------------------------------------------------------------


def test_ver003_wall_clock_flagged() -> None:
    source = _src(
        """
        import time

        def cost():
            return time.time()
        """
    )
    findings = check_file("sim/fake.py", source=source, rules={"VER003"})
    assert any(f.rule == "VER003" and "wall-clock" in f.message for f in findings)


def test_ver003_unseeded_randomness_flagged_seeded_allowed() -> None:
    source = _src(
        """
        import random

        def jitter():
            return random.random()

        def rng(seed):
            return random.Random(seed)
        """
    )
    findings = check_file("core/fake.py", source=source, rules={"VER003"})
    assert len(findings) == 1 and "unseeded" in findings[0].message


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
# VER005: metrics registry covers every op kind and event type.
# ---------------------------------------------------------------------------

_OPS = _src(
    """
    class Op:
        pass

    @dataclass(frozen=True)
    class Compute(Op):
        units: float

    @dataclass(frozen=True)
    class Acquire(Op):
        lock: object
    """
)

_EVENTS = _src(
    """
    EV_QUEUE_DEPTH = "queue-depth"
    EV_NODE_DONE = "node-done"
    """
)


def _obs_findings(registry: str) -> list[LintFinding]:
    return check_obs_coverage(
        "ops.py", _OPS, "events.py", _EVENTS, "registry.py", _src(registry)
    )


def test_ver005_full_coverage_passes() -> None:
    findings = _obs_findings(
        """
        OP_METRICS = {"Compute": "sim.ops.compute", "Acquire": "sim.ops.acquire"}
        EVENT_METRICS = {
            events.EV_QUEUE_DEPTH: "queue.depth",
            events.EV_NODE_DONE: "nodes.done",
        }
        """
    )
    assert findings == [], "\n".join(str(f) for f in findings)


def test_ver005_uncovered_op_flagged() -> None:
    findings = _obs_findings(
        """
        OP_METRICS = {"Compute": "sim.ops.compute"}
        EVENT_METRICS = {
            events.EV_QUEUE_DEPTH: "queue.depth",
            events.EV_NODE_DONE: "nodes.done",
        }
        """
    )
    assert any("op Acquire has no OP_METRICS entry" in f.message for f in findings)


def test_ver005_uncovered_event_and_dead_mappings_flagged() -> None:
    findings = _obs_findings(
        """
        OP_METRICS = {
            "Compute": "sim.ops.compute",
            "Acquire": "sim.ops.acquire",
            "Ghost": "sim.ops.ghost",
        }
        EVENT_METRICS = {
            events.EV_QUEUE_DEPTH: "queue.depth",
            events.EV_GHOST: "ghosts",
            "literal-key": "nope",
        }
        """
    )
    messages = [f.message for f in findings]
    assert any("'Ghost'" in m and "dead mapping" in m for m in messages)
    assert any("events.EV_GHOST" in m for m in messages)
    assert any("must reference an events.EV_* constant" in m for m in messages)
    assert any("EV_NODE_DONE has no EVENT_METRICS entry" in m for m in messages)


def test_ver005_missing_mapping_dict_flagged() -> None:
    findings = _obs_findings("OTHER = 1")
    assert any("OP_METRICS dict literal not found" in f.message for f in findings)
    assert any("EVENT_METRICS dict literal not found" in f.message for f in findings)


# ---------------------------------------------------------------------------
# VER006: critical-path attribution covers every op kind.
# ---------------------------------------------------------------------------


def _critpath_findings(critpath: str) -> list[LintFinding]:
    return check_critpath_coverage("ops.py", _OPS, "critpath.py", _src(critpath))


def test_ver006_full_coverage_passes() -> None:
    findings = _critpath_findings(
        """
        OP_ATTRIBUTION = {"Compute": "busy", "Acquire": "interference"}
        """
    )
    assert findings == [], "\n".join(str(f) for f in findings)


def test_ver006_uncovered_op_flagged() -> None:
    findings = _critpath_findings('OP_ATTRIBUTION = {"Compute": "busy"}')
    assert any("op Acquire has no OP_ATTRIBUTION entry" in f.message for f in findings)


def test_ver006_dead_mapping_and_bad_class_flagged() -> None:
    findings = _critpath_findings(
        """
        OP_ATTRIBUTION = {
            "Compute": "busy",
            "Acquire": "waiting-around",
            "Ghost": "busy",
        }
        """
    )
    messages = [f.message for f in findings]
    assert any("'Ghost'" in m and "dead mapping" in m for m in messages)
    assert any("must be one of" in m for m in messages)


def test_ver006_non_literal_key_flagged() -> None:
    findings = _critpath_findings(
        'OP_ATTRIBUTION = {Compute: "busy", "Acquire": "interference"}'
    )
    messages = [f.message for f in findings]
    assert any("must be a string literal" in m for m in messages)
    assert any("op Compute has no OP_ATTRIBUTION entry" in m for m in messages)


def test_ver006_missing_mapping_dict_flagged() -> None:
    findings = _critpath_findings("OTHER = 1")
    assert any("OP_ATTRIBUTION dict literal not found" in f.message for f in findings)


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
# VER008: wall clock / randomness only through sanctioned seams.
# ---------------------------------------------------------------------------


def test_ver008_bare_clock_reference_flagged() -> None:
    # VER003 only catches *calls*; a stored default must trip VER008.
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
    assert check_file("sim/fake.py", source=source, rules={"VER003"}) == []


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


def test_ver008_pragma_suppression() -> None:
    source = _src(
        """
        import time

        def stamp():
            return time.time()  # verify: ok
        """
    )
    assert check_file("obs/fake.py", source=source, rules={"VER008"}) == []


# ---------------------------------------------------------------------------
# Pragmas and rule inference.
# ---------------------------------------------------------------------------


def test_pragma_suppresses_a_finding() -> None:
    source = _src(
        """
        import time

        def cost():
            return time.time()  # verify: ok
        """
    )
    assert check_file("sim/fake.py", source=source, rules={"VER003"}) == []


def test_rules_inferred_from_filename() -> None:
    source = _src(
        """
        import time

        def _worker(ctx, node):
            yield Compute(1.0)
            node.done = time.time()
        """
    )
    # er_parallel.py gets VER001 + VER003 by inference.
    rules = {f.rule for f in check_file("er_parallel.py", source=source)}
    assert rules == {"VER001", "VER003"}
    # multiproc files get VER004 and shed VER003 (coordinator measures wall time).
    mp = check_file("multiproc.py", source=source)
    assert all(f.rule != "VER003" for f in mp)


def test_finding_str_is_tool_style() -> None:
    finding = LintFinding("VER001", "er_parallel.py", 12, "boom")
    assert str(finding) == "er_parallel.py:12: VER001: boom"


# ---------------------------------------------------------------------------
# VER009: real-backend events are metered and served live.
# ---------------------------------------------------------------------------

_EVENTS_SRC = _src(
    """
    EV_TASK_SUBMIT = "task-submit"
    EV_TASK_RESULT = "task-result"
    """
)

_REGISTRY_SRC = _src(
    """
    EVENT_METRICS = {
        events.EV_TASK_SUBMIT: "tasks.submitted",
        events.EV_TASK_RESULT: "tasks.completed",
    }

    def feed_event(registry, event):
        pass

    def aggregate(bus):
        registry = None
        for event in bus.events:
            feed_event(registry, event)
        return registry
    """
)


def _ver009(parallel_src: str, registry_src: str = _REGISTRY_SRC):
    from repro.verify.staticcheck import check_parallel_event_coverage

    return check_parallel_event_coverage(
        [("multiproc.py", _src(parallel_src))],
        "events.py",
        _EVENTS_SRC,
        "registry.py",
        registry_src,
    )


def test_ver009_covered_emissions_pass() -> None:
    findings = _ver009(
        """
        def run(bus):
            bus.emit(_obs.EV_TASK_SUBMIT, kind="explore")
            bus.emit(_obs.EV_TASK_RESULT, worker=0)
        """
    )
    assert findings == []


def test_ver009_undefined_event_flagged() -> None:
    findings = _ver009(
        """
        def run(bus):
            bus.emit(_obs.EV_TASK_CANCELLED, task=3)
        """
    )
    assert any(
        f.rule == "VER009" and "not defined in obs/events.py" in f.message
        for f in findings
    )


def test_ver009_unmetered_event_flagged() -> None:
    events_src = _EVENTS_SRC + 'EV_HEAP_WAIT = "heap-wait"\n'
    from repro.verify.staticcheck import check_parallel_event_coverage

    findings = check_parallel_event_coverage(
        [("multiproc.py", _src("def run(bus):\n    bus.emit(EV_HEAP_WAIT)\n"))],
        "events.py",
        events_src,
        "registry.py",
        _REGISTRY_SRC,
    )
    assert any(
        f.rule == "VER009" and "EVENT_METRICS has no entry" in f.message
        for f in findings
    )


def test_ver009_missing_feed_event_flagged() -> None:
    registry_src = _src(
        """
        EVENT_METRICS = {
            events.EV_TASK_SUBMIT: "tasks.submitted",
            events.EV_TASK_RESULT: "tasks.completed",
        }
        """
    )
    findings = _ver009("def run(bus):\n    bus.emit(EV_TASK_RESULT)\n", registry_src)
    assert any("defines no feed_event" in f.message for f in findings)


def test_ver009_aggregate_bypassing_feed_event_flagged() -> None:
    registry_src = _src(
        """
        EVENT_METRICS = {
            events.EV_TASK_SUBMIT: "tasks.submitted",
            events.EV_TASK_RESULT: "tasks.completed",
        }

        def feed_event(registry, event):
            pass

        def aggregate(bus):
            return None
        """
    )
    findings = _ver009("def run(bus):\n    bus.emit(EV_TASK_RESULT)\n", registry_src)
    assert any(
        "aggregate() does not call feed_event" in f.message for f in findings
    )
