"""Operations a simulated worker may yield to the engine.

A *worker* is a Python generator.  Between yields it executes ordinary
Python — atomically, as far as simulated time is concerned — and each
yielded operation tells the engine how simulated time passes or why the
processor blocks:

* :class:`Compute` — the processor is busy for a duration.
* :class:`Acquire` / :class:`Release` — contend for a :class:`SimLock`;
  blocked time is accounted as *interference loss* (paper Section 3.1).
* :class:`WaitWork` — block on a :class:`WorkSignal` until new work is
  announced; blocked time is accounted as *starvation loss*.

Each op class declares, where it is defined, the registry counter its
dispatches are tallied under (``metric``) and the loss class its time
falls in (``loss``, one of :data:`LOSS_CLASSES`) — e.g.
``class Compute(Op, metric="sim.ops.compute", loss="busy")``.  A
subclass that omits either fails with :class:`TypeError` when it is
defined, so no op kind can escape the metrics registry or critical-path
attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .locks import SimLock, WorkSignal


#: Where an op's time goes in the paper's Section 3.1 decomposition.
LOSS_CLASSES = ("busy", "interference", "starvation")


class Op:
    """Base class of all simulator operations."""

    __slots__ = ()

    #: Registry counter tallying this op kind's dispatches.
    metric: ClassVar[str]
    #: Loss class of the time this op accounts for.
    loss: ClassVar[str]

    def __init_subclass__(cls, *, metric: str, loss: str) -> None:
        super().__init_subclass__()
        if loss not in LOSS_CLASSES:
            raise TypeError(f"{cls.__name__}: loss {loss!r} is not one of {LOSS_CLASSES}")
        cls.metric = metric
        cls.loss = loss


@dataclass(frozen=True)
class Compute(Op, metric="sim.ops.compute", loss="busy"):
    """Advance this processor's clock by ``units`` of busy time.

    The optional attribution fields do not affect scheduling — the
    engine charges ``units`` regardless — but an installed
    :mod:`repro.obs.critpath` recorder copies them onto the charged
    interval so the critical-path walker can blame path time on a cost
    primitive (``tag``), a tree node (``node``), and the node's e/r
    classification at charge time (``cls``).  ``parts`` decomposes a
    mixed charge (e.g. a serial-subtree chunk) into raw
    ``(primitive, weight)`` components.  ``keys`` names the positions a
    traced charge examined, for :mod:`repro.analysis.losses`.
    """

    units: float
    tag: str = ""
    node: str = ""
    cls: str = ""
    parts: tuple[tuple[str, float], ...] = ()
    keys: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.units < 0:
            raise ValueError("compute duration must be non-negative")


@dataclass(frozen=True)
class Acquire(Op, metric="sim.ops.acquire", loss="interference"):
    """Block until the lock is granted to this processor (FIFO order)."""

    lock: "SimLock"


@dataclass(frozen=True)
class Release(Op, metric="sim.ops.release", loss="interference"):
    """Release a lock held by this processor."""

    lock: "SimLock"


@dataclass(frozen=True)
class WaitWork(Op, metric="sim.ops.wait_work", loss="starvation"):
    """Block until the signal is notified (new work or termination).

    ``seen_version`` is the signal version the worker observed when it
    decided to wait (while holding the heap lock).  If the signal was
    notified between that observation and this yield, the engine resumes
    the worker immediately instead of blocking — the classic lost-wakeup
    race, closed the same way a monitor's condition variable closes it.
    """

    signal: "WorkSignal"
    seen_version: int
