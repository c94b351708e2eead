"""Batched static evaluation over the Zobrist-keyed evaluation cache.

One value seam (:func:`repro.games.base.batch_eval`), one charging model
(``CostModel.batch_eval_base``/``batch_eval_per_leaf``).  The cache
itself is an eval-kind :mod:`repro.cache` store — the same striped,
private and shared-memory classes as the transposition table, holding
static values as depth-0 EXACT entries — built by
:func:`make_eval_cache`.  See DESIGN.md section "Batched evaluation and
the eval cache".
"""

from ..cache import make_eval_cache
from .evaluator import Evaluator

__all__ = [
    "Evaluator",
    "make_eval_cache",
]
