"""Leak audit and process-tree accounting.

An operation leaks when it leaves behind a ``/dev/shm`` entry, a child
process (live, or exited and not yet joined) or a file in the
benchmark's scratch directory. CPU time covers the benchmark process and
every process the program starts and reaps; peak memory is that of the
largest single one of them.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import resource

SHM = pathlib.Path("/dev/shm")


def children() -> set[int]:
    """Pids whose parent is this process, zombies included, read from
    every thread's ``children`` list in ``/proc``."""
    me = os.getpid()
    kids: set[int] = set()
    for tid in os.listdir(f"/proc/{me}/task"):
        try:
            kids.update(int(k) for k in pathlib.Path(f"/proc/{me}/task/{tid}/children")
                        .read_text().split())
        except OSError:
            pass  # the thread ended
    return kids


def rusage_cpu() -> float:
    """CPU seconds (user+sys) of this process and its reaped descendants."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any reaped
    descendant: the peak of the largest single process of the tree, not
    of the tree's sum. A sum of resident sets would count the pages a
    forked child shares with its parent once per child, and sampling the
    proportional set sizes (Pss) of the live tree from ``/proc`` costs a
    page-table walk per process and sample."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Audit:
    """Snapshots of the resources an operation may leak."""

    def __init__(self, scratch: pathlib.Path) -> None:
        self.scratch = scratch

    def snapshot(self) -> tuple[frozenset, frozenset, frozenset]:
        # children are read before multiprocessing reaps the ones it has
        # ended, so a process the program left unjoined counts as a leak
        kids = frozenset(children())
        multiprocessing.active_children()
        shm = frozenset(os.listdir(SHM)) if SHM.is_dir() else frozenset()
        files = frozenset(
            str(p.relative_to(self.scratch)) for p in self.scratch.rglob("*")
        )
        return shm, kids, files

    def leaks(self, before) -> str | None:
        after = self.snapshot()
        found = [
            f"{what} {sorted(new)[:4]}"
            for what, new in zip(
                ("/dev/shm", "child pids", "scratch"),
                (a - b for a, b in zip(after, before)),
            )
            if new
        ]
        return "leaked " + "; ".join(found) if found else None
