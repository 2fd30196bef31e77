"""Forked worker processes, one pinned CPU each.

A job that splits into independent parts (the contiguous parts of an EEG
file, the folds of a cross-validation) runs its first part in the parent and
every other part in a forked child. Each child pickles its results, in
order, into its own anonymous temporary file (its spool) and ends it with
``None``, or with its first error in place of the rest. The parent reads the
spools in part order, so the results it sees and the first error it raises
(type, message and line) are those of a run in one part.

While a block of workers runs, the parent is pinned to the first usable CPU
and child *i* to the *i*-th (cycling), so the kernel cannot leave a child
queued behind its parent on one CPU while another CPU idles; the parent's
affinity is restored when the block ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import threading
from typing import IO, Callable, Iterator, Sequence, TypeVar

from .errors import CognlpError

T = TypeVar("T")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def max_parts() -> int:
    """Parts a job may split into: one per usable CPU, or one where no child
    can be forked safely (no ``os.fork``, or other Python threads running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


def _fork(
    work: Callable[[object, IO[bytes]], None], part: object, spool: IO[bytes], cpu: int
) -> int:
    """Run ``work(part, spool)`` in a forked child pinned to ``cpu`` and
    return its pid.

    The child ends ``spool`` with ``None``, or with the exception ``work``
    raised: a CognlpError as it is, any other as a CognlpError that names
    it, so a bug in a worker is reported rather than lost. The child leaves
    through ``os._exit``, so it runs no exit handler and flushes no buffer it
    inherited (an output file the parent is writing, say). It exits 0 once
    ``spool`` is ended and flushed, and 1 if that fails.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        os.sched_setaffinity(0, {cpu})
        end = None
        try:
            work(part, spool)
        except CognlpError as exc:
            end = exc
        except Exception as exc:
            end = CognlpError(f"worker failed: {type(exc).__name__}: {exc}")
        pickle.dump(end, spool)
        spool.flush()
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def forked(
    work: Callable[[object, IO[bytes]], None], parts: Sequence
) -> Iterator[Iterator[IO[bytes]]]:
    """Run ``work(part, spool)`` for each of ``parts`` in its own forked,
    pinned child, each with its own spool.

    Yields an iterator that waits for each child in turn and gives its spool
    rewound; a child that did not exit cleanly is a CognlpError. Leaving the
    block, normally or by an error, kills and reaps every child not yet
    waited for, closes every spool and restores the parent's CPU affinity,
    so no child outlives the call and no file is left behind.
    """
    spools: list[IO[bytes]] = []
    pids: list[int] = []
    running: set[int] = set()
    mask = os.sched_getaffinity(0) if parts else None

    def results() -> Iterator[IO[bytes]]:
        for pid, spool in zip(pids, spools):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise CognlpError(f"a worker process {how}")
            spool.seek(0)
            yield spool

    try:
        if parts:
            import tempfile  # only a run that forks pays for this import

            cpus = sorted(mask)
            os.sched_setaffinity(0, {cpus[0]})
        for i, part in enumerate(parts, 1):
            spools.append(tempfile.TemporaryFile("w+b"))
            pids.append(_fork(work, part, spools[-1], cpus[i % len(cpus)]))
            running.add(pids[-1])
        yield results()
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()
        if mask is not None:
            os.sched_setaffinity(0, mask)


def spooled(spool: IO[bytes]) -> Iterator:
    """The results a worker pickled into ``spool``, in order (none of them
    ``None``); the worker's error, if it sent one, is raised where it stood."""
    while (entry := pickle.load(spool)) is not None:
        if isinstance(entry, CognlpError):
            raise entry
        yield entry


def _spool_folds(work: Callable[[int], object], folds: range, spool: IO[bytes]) -> None:
    for fold in folds:
        pickle.dump(work(fold), spool)


def by_fold(work: Callable[[int], T], k: int) -> Iterator[T]:
    """``work(fold)`` for folds ``0..k-1``, in fold order.

    The folds split into ``min(max_parts(), k)`` contiguous groups, the
    first run here and each other in a forked worker, so ``work`` must
    depend on nothing but its fold and return a picklable result. A fold's
    error is raised at that fold's position, after the results of every
    fold before it.
    """
    n = max(1, min(max_parts(), k))
    groups = [range(k * i // n, k * (i + 1) // n) for i in range(n)]
    with forked(functools.partial(_spool_folds, work), groups[1:]) as spools:
        yield from map(work, groups[0])
        for spool in spools:
            yield from spooled(spool)
