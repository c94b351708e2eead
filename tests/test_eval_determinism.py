"""The eval cache must never perturb simulated determinism.

A shared eval-kind :class:`~repro.cache.SimStripedTT` sits on the hot path of
every simulated leaf, so any hidden ordering dependence (dict iteration,
id()-keyed state, wall-clock) would show up here first.  The regression
pin is byte-level: a fixed-seed run's full telemetry stream, rendered as
JSONL, against a golden file per eval mode — plus run-to-run byte
equality from fresh caches, and value equality across all modes.

Regenerate the goldens after an intentional engine change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_eval_determinism.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.er_parallel import ERConfig, parallel_er
from repro.eval import make_eval_cache
from repro.games.base import SearchProblem
from repro.games.random_tree import RandomGameTree
from repro.obs import observing
from repro.obs.export import render_jsonl

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Same fixed-seed workload shape as the sim-trace golden in test_obs.py.
_SEED = 7


def _problem() -> SearchProblem:
    return SearchProblem(RandomGameTree(3, 5, seed=_SEED), depth=5)


def _run(mode: str) -> tuple[str, float]:
    """One observed fixed-seed run from a fresh cache; returns (jsonl, value)."""
    with observing() as bus:
        result = parallel_er(
            _problem(),
            2,
            config=ERConfig(serial_depth=2),
            eval_cache=make_eval_cache(mode),
            batch_eval=True,
        )
    return render_jsonl(bus.events), result.value


MODES = ("off", "private", "shared")


class TestEvalDeterminism:
    @pytest.mark.parametrize("mode", MODES)
    def test_run_to_run_byte_identical(self, mode):
        assert _run(mode) == _run(mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_matches_golden_bytes(self, mode):
        golden = GOLDEN_DIR / f"eval_trace_{mode}.jsonl"
        text, _value = _run(mode)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(text, encoding="utf-8")
        assert golden.exists(), (
            f"golden eval trace for mode {mode!r} missing; regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )
        assert text == golden.read_text(encoding="utf-8"), (
            f"fixed-seed eval trace (mode {mode!r}) changed; if intentional, "
            "regenerate with REPRO_REGEN_GOLDEN=1"
        )

    def test_value_equal_across_modes(self):
        baseline = parallel_er(_problem(), 2, config=ERConfig(serial_depth=2)).value
        values = {mode: _run(mode)[1] for mode in MODES}
        assert all(value == baseline for value in values.values()), values

    def test_cache_off_stream_matches_no_eval_stream(self):
        """batch_eval changes cost/timing, but the *default* path is untouched:
        a run with the whole subsystem off is byte-identical to one that never
        imported it (same golden the obs suite pins)."""
        with observing() as bus_a:
            parallel_er(_problem(), 2, config=ERConfig(serial_depth=2))
        with observing() as bus_b:
            parallel_er(
                _problem(), 2, config=ERConfig(serial_depth=2),
                eval_cache=None, batch_eval=False,
            )
        assert render_jsonl(bus_a.events) == render_jsonl(bus_b.events)
