"""Process and shared-memory inspection through ``/proc`` and ``/dev/shm``.

The benchmark reads memory peaks and audits teardown from outside the
program: which processes a program started, how much resident memory
each one peaked at, and whether any process or shared-memory segment
outlived the program.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")


def children_of(pid: int) -> list[int]:
    """Pids whose parent is ``pid``."""
    found: list[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name sits in parentheses and may contain spaces.
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[1]) == pid:
            found.append(int(entry.name))
    return sorted(found)


def peak_rss_kib(pid: int) -> int:
    """The process's peak resident set (``VmHWM``) in KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def tree_peak_rss_mb(pid: int) -> tuple[float, list[int]]:
    """Summed peak RSS of ``pid`` and its children, plus the child pids."""
    kids = children_of(pid)
    total = peak_rss_kib(pid)
    for kid in kids:
        try:
            total += peak_rss_kib(kid)
        except OSError:
            pass  # exited between the scan and the read
    return total / 1024.0, kids


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


def audit_teardown(pids: list[int], shm_before: set[str], grace_s: float = 10.0) -> list[str]:
    """Processes and segments still present after the program stopped.

    Waits up to ``grace_s`` for stragglers (a resource tracker exits
    only after its parent does), then names whatever remains.
    """
    deadline = time.monotonic() + grace_s
    while True:
        leaked = [f"process {pid}" for pid in pids if alive(pid)]
        leaked += [f"shm segment {name}" for name in sorted(shm_names() - shm_before)]
        if not leaked or time.monotonic() >= deadline:
            return leaked
        time.sleep(0.05)
