"""Forked worker processes, one pinned CPU each, for the cross-validation folds.

``by_fold(work, k)`` gives ``work(fold)`` for folds ``0..k-1`` in fold
order. The folds split into contiguous groups: the first group trains in
the parent and every other group in a forked child. Each child pickles its
folds' results, in fold order, into its own anonymous temporary file (its
spool), with its first error in place of the rest. The parent reads the
spools in group order, so the results it sees and the first error it raises
(type, message and line) are those of a run in one process. This module is
the only one that forks, pins or knows the spool format.

While the folds run, the parent is pinned to the first usable CPU and child
*i* to the *i*-th (cycling), so the kernel cannot leave a child queued
behind its parent on one CPU while another CPU idles; the parent's affinity
is restored when the folds end.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import IO, Callable, Iterator, TypeVar

from .errors import CognlpError

T = TypeVar("T")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork(work: Callable[[int], object], folds: range, spool: IO[bytes], cpu: int) -> int:
    """Pickle ``work(fold)`` for each of ``folds`` into ``spool`` in a forked
    child pinned to ``cpu`` and return its pid.

    A fold's exception takes the place of its result and ends ``spool``: a
    CognlpError as it is, any other as a CognlpError that names it, so a bug
    in a worker is reported rather than lost. The child leaves through
    ``os._exit``, so it runs no exit handler and flushes no buffer it
    inherited (an output file the parent is writing, say). It exits 0 once
    ``spool`` is written and flushed, and 1 if that fails.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        os.sched_setaffinity(0, {cpu})
        try:
            for fold in folds:
                pickle.dump(work(fold), spool)
        except CognlpError as exc:
            pickle.dump(exc, spool)
        except Exception as exc:
            pickle.dump(CognlpError(f"worker failed: {type(exc).__name__}: {exc}"), spool)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


def by_fold(work: Callable[[int], T], k: int) -> Iterator[T]:
    """``work(fold)`` for folds ``0..k-1``, in fold order.

    The folds split into ``min(usable_cpus(), k)`` contiguous groups whose
    sizes differ by at most one, or into one group where no child can be
    forked safely (no ``os.fork``, or other Python threads running). With
    one group every fold trains here and nothing forks. Otherwise this
    process is pinned, every group but the first starts at once in its own
    forked, pinned child, and the first trains here, so ``work`` must depend
    on nothing but its fold and return a picklable result. Each child is
    waited for in turn; one that did not exit cleanly is a CognlpError, and
    a fold's error is raised at its position, after the results of every
    fold before it.

    An error, or a caller that stops early, kills and reaps every child not
    yet waited for, closes every spool and restores this process's CPU
    affinity. All of that is done before the last result is handed out, so
    a caller that takes exactly ``k`` results is no longer pinned while it
    handles the last one.
    """
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n = max(1, min(usable_cpus() if forkable else 1, k))
    if n == 1:
        # yield from, not a loop variable: no result stays referenced here
        # while the next fold trains (peak memory)
        yield from map(work, range(k))
        return
    import tempfile  # only folds that fork pay for this import

    groups = [range(k * i // n, k * (i + 1) // n) for i in range(n)]
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    spools: list[IO[bytes]] = []
    running: list[int] = []
    held: list = []  # a child's result, not kept here once handed out (peak memory)
    try:
        os.sched_setaffinity(0, {cpus[0]})
        for i, folds in enumerate(groups[1:], 1):
            spools.append(tempfile.TemporaryFile("w+b"))
            running.append(_fork(work, folds, spools[-1], cpus[i % len(cpus)]))
        yield from map(work, groups[0])
        for folds, spool in zip(groups[1:], spools):
            code = os.waitstatus_to_exitcode(os.waitpid(running[0], 0)[1])
            del running[0]
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise CognlpError(f"a worker process {how}")
            spool.seek(0)
            for fold in folds:
                held.append(pickle.load(spool))
                if isinstance(held[-1], CognlpError):
                    raise held.pop()
                if fold < k - 1:
                    yield held.pop()
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()
        os.sched_setaffinity(0, mask)
    yield held.pop()
