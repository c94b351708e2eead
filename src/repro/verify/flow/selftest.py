"""Seeded-mutation self-test for the flow analyzer.

A static analyzer that is never shown a bug it must catch rots
silently: a refactor of the interpreter can turn every check into a
no-op while the clean tree stays green.  Mirroring the race detector's
mutation mode, this module keeps a corpus of seeded concurrency bugs —
each a textual mutation of a known-clean exemplar (or of the *real*
``er_parallel.py`` source) paired with the rule that must fire — and
``self_test()`` asserts the analyzer kills them.

Run via ``repro-gametree verify``, the test suite, or::

    PYTHONPATH=src python -m repro.verify.flow.selftest
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import VerificationError
from . import analyze_sources, repo_root
from .callgraph import ANALYZED_MODULES

#: Tag vocabulary for the exemplar (a slice of the real CostModel's).
_VOCAB = frozenset({"heap_op", "bookkeeping", "combine_step", "serial"})

#: A clean miniature engine: worker loop, heap/tree sections, a queue
#: class, a keyed counter, helper generators.  Every mutation below is
#: a textual edit of this source (or of the real engine's).
EXEMPLAR = '''\
from repro.sim.ops import Acquire, Compute, Release, WaitWork


class WorkQueue:
    def push(self, node):
        self._seq += 1
        self._items.append(node)

    def pop(self):
        if not self._items:
            return None
        node = self._items[-1]
        del self._items[-1]
        return node


class _Context:
    def _bump(self, key, amount=1):
        self.counters[key] += amount

    def pop_work(self):
        node = self.primary.pop()
        if node is not None:
            self._bump("pops_primary")
        return node

    def finish(self, node, value):
        node.value = value
        node.done = True
        self._bump("finished")


def _push_all(ctx, pushes):
    if not pushes:
        return
    yield Acquire(ctx.heap_lock)
    yield Compute(len(pushes), tag="heap_op")
    for node in pushes:
        ctx.primary.push(node)
    yield Release(ctx.heap_lock)


def _subsearch(ctx, node, stats):
    pushes = []
    yield Acquire(ctx.tree_lock)
    yield Compute(1, tag="bookkeeping")
    ctx.finish(node, 0)
    for child in node.children:
        pushes.append(child)
    yield Release(ctx.tree_lock)
    yield from _push_all(ctx, pushes)


def _refute(ctx, node):
    yield Acquire(ctx.tree_lock)
    yield Compute(1, tag="combine_step")
    if node.value is None:
        node.value = 0
    yield Release(ctx.tree_lock)


def _worker(ctx, stats, pid=0):
    while not ctx.done:
        yield Acquire(ctx.heap_lock)
        yield Compute(1, tag="heap_op")
        node = ctx.pop_work()
        yield Release(ctx.heap_lock)
        if node is None:
            yield WaitWork(ctx.work, 0)
            continue
        yield from _subsearch(ctx, node, stats)
        yield from _refute(ctx, node)
'''


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: textual replacements plus the rule that must fire."""

    name: str
    expected_rule: str
    #: (old, new) pairs applied in order, first occurrence each.
    replacements: tuple[tuple[str, str], ...]
    #: "exemplar" or the repo-relative path of a real analyzed module.
    target: str = "exemplar"


MUTATIONS: tuple[Mutation, ...] = (
    Mutation(
        name="drop-heap-acquire",
        expected_rule="VER101",
        replacements=(
            (
                "        yield Acquire(ctx.heap_lock)\n"
                "        yield Compute(1, tag=\"heap_op\")\n",
                "        yield Compute(1, tag=\"heap_op\")\n",
            ),
        ),
    ),
    Mutation(
        name="drop-heap-release",
        expected_rule="VER101",
        replacements=(
            (
                "        yield Release(ctx.heap_lock)\n"
                "        if node is None:\n",
                "        if node is None:\n",
            ),
        ),
    ),
    Mutation(
        name="drop-tree-acquire",
        expected_rule="VER101",
        replacements=(
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(1, tag=\"bookkeeping\")\n",
                "    yield Compute(1, tag=\"bookkeeping\")\n",
            ),
        ),
    ),
    Mutation(
        name="drop-tree-release",
        expected_rule="VER101",
        replacements=(
            (
                "    yield Release(ctx.tree_lock)\n"
                "    yield from _push_all(ctx, pushes)\n",
                "    yield from _push_all(ctx, pushes)\n",
            ),
        ),
    ),
    Mutation(
        name="move-write-outside-guard",
        expected_rule="VER102",
        replacements=(
            (
                "    ctx.finish(node, 0)\n"
                "    for child in node.children:\n"
                "        pushes.append(child)\n"
                "    yield Release(ctx.tree_lock)\n",
                "    for child in node.children:\n"
                "        pushes.append(child)\n"
                "    yield Release(ctx.tree_lock)\n"
                "    ctx.finish(node, 0)\n",
            ),
        ),
    ),
    Mutation(
        name="wrong-lock-for-write",
        expected_rule="VER102",
        replacements=(
            # _subsearch now guards its tree writes with the heap lock,
            # while _refute still writes node.value under the tree lock.
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(1, tag=\"bookkeeping\")\n",
                "    yield Acquire(ctx.heap_lock)\n"
                "    yield Compute(1, tag=\"bookkeeping\")\n",
            ),
            (
                "    yield Release(ctx.tree_lock)\n"
                "    yield from _push_all(ctx, pushes)\n",
                "    yield Release(ctx.heap_lock)\n"
                "    yield from _push_all(ctx, pushes)\n",
            ),
        ),
    ),
    Mutation(
        name="unguarded-counter-bump",
        expected_rule="VER102",
        replacements=(
            (
                "    yield Release(ctx.tree_lock)\n"
                "    yield from _push_all(ctx, pushes)\n",
                "    yield Release(ctx.tree_lock)\n"
                "    ctx._bump(\"finished\")\n"
                "    yield from _push_all(ctx, pushes)\n",
            ),
        ),
    ),
    Mutation(
        name="reorder-lock-acquisitions",
        expected_rule="VER103",
        replacements=(
            # _push_all nests tree inside heap; _refute nests heap
            # inside tree: a classic AB/BA deadlock.
            (
                "    yield Acquire(ctx.heap_lock)\n"
                "    yield Compute(len(pushes), tag=\"heap_op\")\n",
                "    yield Acquire(ctx.heap_lock)\n"
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(len(pushes), tag=\"heap_op\")\n"
                "    yield Release(ctx.tree_lock)\n",
            ),
            (
                "    yield Compute(1, tag=\"combine_step\")\n",
                "    yield Compute(1, tag=\"combine_step\")\n"
                "    yield Acquire(ctx.heap_lock)\n"
                "    yield Release(ctx.heap_lock)\n",
            ),
        ),
    ),
    Mutation(
        name="drop-heap-charge",
        expected_rule="VER104",
        replacements=(
            (
                "        yield Compute(1, tag=\"heap_op\")\n"
                "        node = ctx.pop_work()\n",
                "        node = ctx.pop_work()\n",
            ),
        ),
    ),
    Mutation(
        name="untagged-compute",
        expected_rule="VER104",
        replacements=(
            (
                "yield Compute(1, tag=\"bookkeeping\")",
                "yield Compute(1)",
            ),
        ),
    ),
    Mutation(
        name="unknown-compute-tag",
        expected_rule="VER104",
        replacements=(
            (
                "tag=\"combine_step\"",
                "tag=\"combinestep\"",
            ),
        ),
    ),
    Mutation(
        name="wait-while-holding",
        expected_rule="VER105",
        replacements=(
            (
                "        yield Release(ctx.heap_lock)\n"
                "        if node is None:\n"
                "            yield WaitWork(ctx.work, 0)\n",
                "        if node is None:\n"
                "            yield WaitWork(ctx.work, 0)\n"
                "        yield Release(ctx.heap_lock)\n"
                "        if node is None:\n",
            ),
        ),
    ),
    Mutation(
        name="double-acquire-tree",
        expected_rule="VER101",
        replacements=(
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(1, tag=\"combine_step\")\n",
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(1, tag=\"combine_step\")\n",
            ),
        ),
    ),
    Mutation(
        name="delegate-while-holding",
        expected_rule="VER101",
        replacements=(
            (
                "        yield Release(ctx.heap_lock)\n"
                "        if node is None:\n"
                "            yield WaitWork(ctx.work, 0)\n"
                "            continue\n"
                "        yield from _subsearch(ctx, node, stats)\n",
                "        if node is None:\n"
                "            yield Release(ctx.heap_lock)\n"
                "            yield WaitWork(ctx.work, 0)\n"
                "            continue\n"
                "        yield from _subsearch(ctx, node, stats)\n"
                "        yield Release(ctx.heap_lock)\n",
            ),
        ),
    ),
    # -- mutations of the real engine source --------------------------------
    Mutation(
        name="real:drop-tree-acquire-in-process-speculative",
        expected_rule="VER101",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    pushes: list[tuple[str, PNode]] = []\n"
                "    ctx.speculative_step(node, pushes)\n",
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    pushes: list[tuple[str, PNode]] = []\n"
                "    ctx.speculative_step(node, pushes)\n",
            ),
        ),
    ),
    Mutation(
        name="real:drop-tree-acquire-around-primary-step",
        expected_rule="VER101",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    ctx.expand_children(node, pushes)\n",
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    ctx.expand_children(node, pushes)\n",
            ),
        ),
    ),
    Mutation(
        name="real:drop-heap-charge-before-pop",
        expected_rule="VER104",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "            yield Compute(cm.heap_op, tag=\"heap_op\")\n"
                "            node, from_spec = ctx.pop_work()\n",
                "            node, from_spec = ctx.pop_work()\n",
            ),
        ),
    ),
    Mutation(
        name="real:store-node-attribute-outside-lock",
        expected_rule="VER102",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "            ctx._note(node, WRITE)\n"
                "            node.next_child = index + 1\n"
                "        yield Release(ctx.tree_lock)\n",
                "            ctx._note(node, WRITE)\n"
                "        yield Release(ctx.tree_lock)\n"
                "        if survived:\n"
                "            node.next_child = index + 1\n",
            ),
        ),
    ),
    Mutation(
        # speculative_step now runs under the heap lock: its node writes
        # hold the wrong guard.
        name="real:tree-method-under-heap-lock",
        expected_rule="VER102",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "    yield Acquire(ctx.tree_lock)\n"
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    pushes: list[tuple[str, PNode]] = []\n"
                "    ctx.speculative_step(node, pushes)\n"
                "    yield Release(ctx.tree_lock)\n",
                "    yield Acquire(ctx.heap_lock)\n"
                "    yield Compute(cm.bookkeeping, tag=\"bookkeeping\","
                " node=_cp_path(node), cls=node.ntype)\n"
                "    pushes: list[tuple[str, PNode]] = []\n"
                "    ctx.speculative_step(node, pushes)\n"
                "    yield Release(ctx.heap_lock)\n",
            ),
        ),
    ),
    Mutation(
        # The distributed/central branches now disagree on the held
        # lockset, so the analyzer reports the divergence (VER101) at
        # the join rather than the downstream wait-while-holding.
        name="real:drop-heap-release-in-worker",
        expected_rule="VER101",
        target="src/repro/core/er_parallel.py",
        replacements=(
            (
                "            seen_version = ctx.work.version\n"
                "            yield Release(ctx.heap_lock)\n",
                "            seen_version = ctx.work.version\n",
            ),
        ),
    ),
)


def _mutate(source: str, mutation: Mutation) -> str:
    for old, new in mutation.replacements:
        if old not in source:
            raise VerificationError(
                f"flow self-test mutation {mutation.name!r} no longer "
                f"applies: anchor text not found in {mutation.target}"
            )
        source = source.replace(old, new, 1)
    return source


def self_test(min_kill_rate: float = 0.9) -> tuple[int, int]:
    """Run the corpus; raise unless >= ``min_kill_rate`` mutants die.

    Returns ``(killed, total)`` on success.
    """
    clean = analyze_sources({"exemplar.py": EXEMPLAR}, vocab=_VOCAB)
    if clean:
        raise VerificationError(
            "flow self-test exemplar is not clean: "
            + "; ".join(str(f) for f in clean)
        )
    real_sources = {
        rel: (repo_root() / rel).read_text() for rel in ANALYZED_MODULES
    }
    survivors: list[str] = []
    for mutation in MUTATIONS:
        if mutation.target == "exemplar":
            sources = {"exemplar.py": _mutate(EXEMPLAR, mutation)}
            findings = analyze_sources(sources, vocab=_VOCAB)
        else:
            sources = dict(real_sources)
            sources[mutation.target] = _mutate(sources[mutation.target], mutation)
            findings = analyze_sources(sources)
        if not any(f.rule == mutation.expected_rule for f in findings):
            got = sorted({f.rule for f in findings}) or ["nothing"]
            survivors.append(
                f"{mutation.name} (wanted {mutation.expected_rule}, "
                f"got {', '.join(got)})"
            )
    total = len(MUTATIONS)
    killed = total - len(survivors)
    if killed < min_kill_rate * total:
        raise VerificationError(
            f"flow self-test kill rate {killed}/{total} below "
            f"{min_kill_rate:.0%}; survivors: {'; '.join(survivors)}"
        )
    return killed, total


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    killed, total = self_test()
    print(f"flow self-test: {killed}/{total} seeded mutations killed")
