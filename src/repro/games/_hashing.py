"""Counter-based splittable hashing for lazily generated game trees.

The paper's random trees assign each leaf an independent pseudo-random
value (Section 7).  Materializing a 4^11-leaf tree is out of the question,
so every random quantity in the synthetic games is *derived* from the
node's path with a SplitMix64-style mixer: the same (seed, path) always
yields the same value, trees never occupy memory, and two searches of the
same tree — serial, parallel, or interleaved — see identical values.

:func:`path_hash` is the definition of every such value.  It folds the
path one element at a time, so the hash of a child is one SplitMix64
step from its parent's: :class:`~repro.games.random_tree.TreePosition`
carries that running state down the tree, and a node costs one step
instead of one per ply.  The carried state is only a cache of
:func:`path_hash`; a position without it falls back to this function.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .base import Path

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> int:
    """One output of the SplitMix64 generator for the given state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def path_hash(seed: int, path: Path, stream: int = 0) -> int:
    """Hash a node path into 64 uniform bits.

    ``stream`` selects independent random streams for the same node (for
    example leaf value versus static-evaluation noise).
    """
    h = splitmix64(seed & _MASK64 ^ (stream * 0xD1B54A32D192ED03 & _MASK64))
    for index in path:
        h = splitmix64(h ^ (index + 1))
    return h


def uniform_int(seed: int, path: Path, low: int, high: int, stream: int = 0) -> int:
    """Deterministic uniform integer in ``[low, high]`` for a node path."""
    if high < low:
        raise ValueError("uniform_int requires low <= high")
    span = high - low + 1
    return low + path_hash(seed, path, stream) % span
