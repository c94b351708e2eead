"""The one instrumentation probe: sinks attach, nest and detach cleanly.

Every instrumented site calls :data:`repro.obs.probe.CURRENT`, which fans
out to the race trace, the event bus, the critical-path recorder and the
span ring.  These tests pin the seam: each sink receives exactly the
stream it receives alone, in any combination and nesting, and the hook
is ``None`` whenever nothing is attached.
"""

from __future__ import annotations

import gc
from contextlib import ExitStack

import pytest

from repro.cache.sharedmem import SharedMemoryTT
from repro.core.er_parallel import ERConfig, parallel_er
from repro.errors import SimulationError
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import critpath, live, observing, probe
from repro.obs import events as obs_events
from repro.search.transposition import Bound, TTEntry
from repro.sim.ops import LOSS_CLASSES, Op
from repro.verify.trace import tracing

SINKS = {
    "trace": tracing,
    "bus": observing,
    "schedule": critpath.recording,
}


def _run() -> float:
    problem = SearchProblem(RandomGameTree(3, 4, seed=11), depth=4)
    return parallel_er(problem, 3, config=ERConfig(serial_depth=2)).sim_time


def _stream(slot: str, sink: object) -> object:
    """What one sink collected, in a comparable form."""
    if slot == "trace":
        return list(sink.events)  # type: ignore[attr-defined]
    if slot == "bus":
        return (list(sink.events), dict(sink.op_counts))  # type: ignore[attr-defined]
    return (list(sink.intervals), dict(sink.node_queue))  # type: ignore[attr-defined]


def _alone(slot: str) -> object:
    with SINKS[slot]() as sink:
        _run()
    return _stream(slot, sink)


@pytest.fixture(scope="module")
def alone() -> dict[str, object]:
    return {slot: _alone(slot) for slot in SINKS}


@pytest.mark.parametrize("order", [("trace", "bus", "schedule"), ("schedule", "bus", "trace")])
def test_nested_sinks_each_see_their_own_stream(order, alone) -> None:
    with ExitStack() as stack:
        sinks = {slot: stack.enter_context(SINKS[slot]()) for slot in order}
        assert probe.CURRENT is not None
        _run()
    assert probe.CURRENT is None
    for slot, sink in sinks.items():
        assert _stream(slot, sink) == alone[slot], slot
        assert _stream(slot, sink) != _stream(slot, type(sink)()), slot


@pytest.mark.parametrize("slot", sorted(SINKS))
def test_inner_context_restores_the_outer_sink(slot) -> None:
    enter = SINKS[slot]
    if slot == "schedule":
        # One schedule has one recorder: a second one is refused.
        with enter() as outer:
            with pytest.raises(SimulationError, match="already installed"):
                with enter():
                    pass
            assert probe.CURRENT is not None and probe.CURRENT.schedule is outer
        assert probe.CURRENT is None
        return
    with enter() as outer:
        with enter() as inner:
            assert getattr(probe.CURRENT, slot) is inner
            _run()
        assert getattr(probe.CURRENT, slot) is outer
        assert outer.events == []
        _run()
        assert outer.events == inner.events
    assert probe.CURRENT is None


def test_other_sinks_survive_an_inner_exit() -> None:
    with observing() as bus:
        with tracing() as recorder:
            assert probe.CURRENT is not None
            assert probe.CURRENT.bus is bus and probe.CURRENT.trace is recorder
        assert probe.CURRENT is not None
        assert probe.CURRENT.bus is bus and probe.CURRENT.trace is None
    assert probe.CURRENT is None


def test_exception_exit_detaches_everything() -> None:
    with pytest.raises(RuntimeError, match="boom"):
        with tracing(), observing(), critpath.recording():
            live.install_ring(live.TRACE_FULL)
            try:
                raise RuntimeError("boom")
            finally:
                live.uninstall_ring()
    assert probe.CURRENT is None


def test_op_without_declarations_is_rejected() -> None:
    with pytest.raises(TypeError, match="loss"):

        class NoLoss(Op, metric="sim.ops.no_loss"):
            pass

    with pytest.raises(TypeError, match="metric"):

        class NoMetric(Op, loss="busy"):
            pass


def test_every_op_declares_a_loss_class() -> None:
    gc.collect()  # frees the classes whose declaration raised above
    ops = Op.__subclasses__()
    assert ops
    for op in ops:
        assert op.loss in LOSS_CLASSES, op
        assert op.metric.startswith("sim.ops."), op


def test_emit_rejects_an_unknown_event_type() -> None:
    with observing() as bus:
        with pytest.raises(ValueError, match="unknown event type"):
            probe.CURRENT.emit("no-such-event")  # type: ignore[union-attr]
        bus.emit(obs_events.EV_EVAL_BATCH, n=3)
    assert [event.etype for event in bus.events] == [obs_events.EV_EVAL_BATCH]


def test_span_ring_and_trace_recorder_coexist() -> None:
    table = SharedMemoryTT(capacity=64, n_stripes=2)
    try:
        with tracing() as recorder:
            ring = live.install_ring(live.TRACE_FULL)
            try:
                assert probe.CURRENT is not None
                assert probe.CURRENT.ring is ring and probe.CURRENT.trace is recorder
                table.store(5, TTEntry(1.0, 2, Bound.EXACT, None))
                assert table.probe(5) is not None
                _run()
            finally:
                live.uninstall_ring()
            assert probe.CURRENT is not None and probe.CURRENT.ring is None
        assert ring is not None
        assert [name for _, name, *_ in ring.drain()] == ["store", "probe"]
        assert recorder.events
    finally:
        table.close()
        table.unlink()
    assert probe.CURRENT is None
