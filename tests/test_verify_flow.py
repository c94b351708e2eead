"""Tests for the interprocedural flow analyzer (repro.verify.flow)."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.errors import VerificationError
from repro.verify.flow import (
    RULES,
    analyze_repo,
    analyze_sources,
    load_project,
    repo_root,
)
from repro.verify.flow.baseline import (
    Suppression,
    filter_baselined,
    load_baseline,
    save_baseline,
)
from repro.verify.flow.lockset import Analysis, canonical_token, lock_category
from repro.verify.flow.selftest import EXEMPLAR, MUTATIONS, self_test

FIXTURE = Path(__file__).parent / "fixtures" / "flow" / "on_spec_race.py"


def _src(text: str) -> dict[str, str]:
    return {"mod.py": textwrap.dedent(text)}


# ---------------------------------------------------------------------------
# the repository itself


def test_repo_tree_is_clean() -> None:
    """The gate: zero findings on the committed tree."""
    assert analyze_repo() == []


def test_repo_analysis_is_not_vacuous() -> None:
    """Guard against a silently-empty walk: the engine's shared writes
    and the cache subsystems' lock nesting must actually be observed."""
    analysis = Analysis(load_project(repo_root()))
    analysis.run()
    locations = {w.location for w in analysis.writes}
    assert "on_spec" in locations
    assert "value" in locations
    assert "_Context.counters[pops_primary]" in locations
    assert any("_sim_locks" in h for h, _ in analysis.order_edges)


def test_repo_node_writes_hold_the_tree_lock() -> None:
    """Every write to a tree node's attribute holds the tree lock, so
    the node-off-tree rule keeps the real tree clean for a reason."""
    analysis = Analysis(load_project(repo_root()))
    analysis.run()
    node_writes = [w for w in analysis.writes if w.node]
    assert {"value", "done", "on_spec"} <= {w.location for w in node_writes}
    assert all("tree" in w.categories for w in node_writes), node_writes
    # The owners' own state (queues, counters) is not node state.
    assert not any(w.node for w in analysis.writes if "." in w.location)


# ---------------------------------------------------------------------------
# the historical on_spec race (regression fixture)


def test_on_spec_race_fixture_is_detected() -> None:
    source = FIXTURE.read_text()
    findings = analyze_sources({"on_spec_race.py": source})
    ver102 = [f for f in findings if f.rule == "VER102"]
    assert ver102, findings
    # Anchored at the buggy pop_work write, with the inconsistent-guard
    # signature naming the racing field.
    bug_line = next(
        i + 1
        for i, line in enumerate(source.splitlines())
        if "spec.on_spec = False" in line
    )
    anchored = [f for f in ver102 if f.line == bug_line]
    assert anchored, ver102
    assert anchored[0].signature == "inconsistent:on_spec:heap"
    assert anchored[0].function == "_Context.pop_work"


# ---------------------------------------------------------------------------
# mutation self-test corpus


def test_selftest_exemplar_is_clean_and_mutations_die() -> None:
    killed, total = self_test()
    assert total == len(MUTATIONS)
    assert killed == total  # 100%; the committed gate is >= 90%


def test_selftest_covers_every_rule() -> None:
    expected = {m.expected_rule for m in MUTATIONS}
    assert expected == set(RULES)


def test_selftest_exemplar_mutation_anchors_apply() -> None:
    for mutation in MUTATIONS:
        if mutation.target != "exemplar":
            continue
        source = EXEMPLAR
        for old, _new in mutation.replacements:
            assert old in source, mutation.name


# ---------------------------------------------------------------------------
# unit cases per rule


def test_ver101_release_without_acquire() -> None:
    findings = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                yield Release(ctx.heap_lock)
            """
        )
    )
    assert any(
        f.rule == "VER101" and f.signature == "release-unheld:heap_lock"
        for f in findings
    )


def test_ver101_branch_divergence() -> None:
    findings = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                if ctx.flag:
                    yield Acquire(ctx.heap_lock)
                yield Compute(1, tag="heap_op")
                yield Release(ctx.heap_lock)
            """
        )
    )
    assert any(f.rule == "VER101" and "divergence" in f.signature for f in findings)


def test_ver101_interprocedural_exit_imbalance() -> None:
    # The helper acquires and never releases; the leak is only visible
    # across the call boundary.
    findings = analyze_sources(
        _src(
            """
            def _grab(ctx):
                yield Acquire(ctx.tree_lock)

            def _worker(ctx, stats, pid=0):
                yield from _grab(ctx)
            """
        )
    )
    assert any(
        f.rule == "VER101" and f.signature == "exit-imbalance:tree_lock"
        for f in findings
    )


def test_ver101_nested_stripe_of_held_family_keeps_outer_hold() -> None:
    # ``probe_op`` holds a stripe while calling a same-named ``probe``
    # that enters a stripe of the same family (its own locked path, as
    # name-based resolution sees it); leaving the inner ``with`` must not
    # drop the caller's hold.
    findings = analyze_sources(
        _src(
            """
            class Store:
                def probe(self, key):
                    with self._real_locks[key % 2]:
                        entry = self._tables[key % 2].probe(key)
                    return entry

                def probe_op(self, key):
                    yield Compute(1, tag="tt_probe")
                    with self._real_locks[key % 2]:
                        entry = self._tables[key % 2].probe(key)
                    return entry

            def _worker(ctx, stats, pid=0):
                yield from ctx.tt.probe_op(1)
            """
        )
    )
    assert findings == []


def test_outside_class_receiver_borrows_no_summary() -> None:
    # ``self._tables[i]`` holds tables of a class defined outside the
    # analyzed modules: their ``probe`` is opaque, and a call to it made
    # inside a held section must not borrow the lock effects of the
    # analyzed ``Store.probe`` (name-only matching re-entered the lock).
    findings = analyze_sources(
        _src(
            """
            from repro.search.transposition import TranspositionTable

            class Store:
                def __init__(self, n):
                    self._tables = tuple(TranspositionTable() for _ in range(n))
                    self.index_lock = threading.Lock()

                def probe(self, key):
                    with self.index_lock:
                        entry = key
                    return entry

                def lookup(self, key):
                    with self.index_lock:
                        entry = self._tables[key % 2].probe(key)
                    return entry

            def _worker(ctx, stats, pid=0):
                ctx.tt.lookup(1)
                yield Compute(1, tag="tt_probe")
            """
        )
    )
    assert findings == []


def test_self_receiver_resolves_through_its_class() -> None:
    # ``self.probe`` inside ``Cache`` is ``Cache.probe``, never the
    # same-named method of another class; through its own class the
    # call still carries its lock effects.
    findings = analyze_sources(
        _src(
            """
            class Store:
                def probe(self, key):
                    with self.tree_lock:
                        entry = key
                    return entry

            class Cache:
                def probe(self, key):
                    return key

                def lookup(self, key):
                    with self.tree_lock:
                        entry = self.probe(key)
                    return entry

                def relock(self, key):
                    with self.tree_lock:
                        entry = self.lookup(key)
                    return entry

            def _worker(ctx, stats, pid=0):
                ctx.cache.lookup(1)
                ctx.cache.relock(1)
                yield Compute(1, tag="tt_probe")
            """
        )
    )
    assert [(f.rule, f.function, f.signature) for f in findings] == [
        ("VER101", "Cache.lookup", "reacquire:tree_lock")
    ]


def test_ver103_order_cycle_across_functions() -> None:
    findings = analyze_sources(
        _src(
            """
            def _a(ctx):
                yield Acquire(ctx.heap_lock)
                yield Acquire(ctx.tree_lock)
                yield Release(ctx.tree_lock)
                yield Release(ctx.heap_lock)

            def _b(ctx):
                yield Acquire(ctx.tree_lock)
                yield Acquire(ctx.heap_lock)
                yield Release(ctx.heap_lock)
                yield Release(ctx.tree_lock)

            def _worker(ctx, stats, pid=0):
                yield from _a(ctx)
                yield from _b(ctx)
            """
        )
    )
    cycles = [f for f in findings if f.rule == "VER103"]
    assert cycles and "heap_lock" in cycles[0].signature
    assert "tree_lock" in cycles[0].signature


def test_ver105_wait_while_holding() -> None:
    findings = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                yield Acquire(ctx.heap_lock)
                yield WaitWork(ctx.work, 0)
                yield Release(ctx.heap_lock)
            """
        )
    )
    assert any(f.rule == "VER105" for f in findings)


def test_ver102_shared_write_without_lock() -> None:
    findings = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                node = ctx.pop()
                node.value = 1
                yield Compute(1, tag="heap_op")
            """
        )
    )
    assert any(
        f.rule == "VER102" and f.signature == "unguarded:value" for f in findings
    )


def test_lock_category_and_canonicalization() -> None:
    assert lock_category("heap_lock") == "heap"
    assert lock_category("local_locks[*]") == "heap"
    assert lock_category("tree_lock") == "tree"
    assert lock_category("SimStripedTT._sim_locks[*]") == "SimStripedTT._sim_locks[*]"
    import ast as _ast

    expr = _ast.parse("ctx.local_locks[pid]", mode="eval").body
    assert canonical_token(expr, None, {}) == "local_locks[*]"
    expr = _ast.parse("self._sim_locks[i]", mode="eval").body
    assert canonical_token(expr, "SimStripedTT", {}) == "SimStripedTT._sim_locks[*]"


# ---------------------------------------------------------------------------
# baseline round-trip


def test_baseline_round_trip_and_filtering(tmp_path: Path) -> None:
    findings = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                yield Release(ctx.heap_lock)
            """
        )
    )
    assert findings
    target = findings[0]
    path = tmp_path / "baseline.json"
    save_baseline(
        path,
        [Suppression(target.fingerprint(), target.rule, "known quirk; tracked")],
    )
    loaded = load_baseline(path)
    assert [s.fingerprint for s in loaded] == [target.fingerprint()]
    novel, baselined = filter_baselined(findings, loaded)
    assert target in baselined and target not in novel


def test_baseline_rejects_reasonless_entries(tmp_path: Path) -> None:
    path = tmp_path / "baseline.json"
    path.write_text(
        '{"version": 1, "suppressions": [{"fingerprint": "x", "rule": "VER102", "reason": "  "}]}'
    )
    with pytest.raises(ValueError):
        load_baseline(path)


def test_committed_baseline_is_empty() -> None:
    """The committed tree needs no suppressions; keep it that way."""
    baseline = load_baseline(repo_root() / "verify_flow_baseline.json")
    assert baseline == []


def test_fingerprints_are_line_independent() -> None:
    a = analyze_sources(
        _src(
            """
            def _worker(ctx, stats, pid=0):
                yield Release(ctx.heap_lock)
            """
        )
    )
    b = analyze_sources(
        _src(
            """
            # a comment shifting every line number
            def _worker(ctx, stats, pid=0):
                yield Release(ctx.heap_lock)
            """
        )
    )
    assert a[0].line != b[0].line
    assert a[0].fingerprint() == b[0].fingerprint()


def test_selftest_raises_on_broken_exemplar(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.verify.flow import selftest as st

    monkeypatch.setattr(
        st, "EXEMPLAR", st.EXEMPLAR.replace("yield Release(ctx.heap_lock)", "pass", 1)
    )
    with pytest.raises(VerificationError):
        st.self_test()
