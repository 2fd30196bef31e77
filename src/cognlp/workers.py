"""Forked worker processes, one pinned CPU each, behind one ordered map.

A job that splits into independent parts (the folds of a cross-validation,
through ``by_fold``) is one ``ordered(work, parts)`` block: the first part
runs in the parent and every other part in a forked child. Each child
pickles the items of ``work(part)``, in order, into its own anonymous
temporary file (its spool) and ends it with ``None``, or with its first
error in place of the rest. The parent reads the spools in part order, so
the items it sees and the first error it raises (type, message and line)
are those of a run in one part. This module is the only one that forks,
pins or knows the spool format.

While a block of workers runs, the parent is pinned to the first usable CPU
and child *i* to the *i*-th (cycling), so the kernel cannot leave a child
queued behind its parent on one CPU while another CPU idles; the parent's
affinity is restored when the block ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import pickle
import signal
import threading
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import CognlpError

T = TypeVar("T")
P = TypeVar("P")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def max_parts() -> int:
    """Parts a job may split into: one per usable CPU, or one where no child
    can be forked safely (no ``os.fork``, or other Python threads running)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


def split(seq: Sequence[T], parts: int) -> list[Sequence[T]]:
    """``seq`` in ``parts`` contiguous slices whose lengths differ by at most
    one; never fewer than one slice nor more than ``len(seq)``."""
    n = len(seq)
    k = max(1, min(parts, n))
    return [seq[n * i // k : n * (i + 1) // k] for i in range(k)]


def _fork(work: Callable[[P], Iterable], part: P, spool: IO[bytes], cpu: int) -> int:
    """Pickle each item of ``work(part)`` into ``spool`` in a forked child
    pinned to ``cpu`` and return its pid.

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
            for item in work(part):
                pickle.dump(item, spool)
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
def ordered(work: Callable[[P], Iterable[T]], parts: Sequence[P]) -> Iterator[Iterator[T]]:
    """Yield one iterator over the items of ``work(part)`` for each of
    ``parts`` (at least one), in part order.

    The first part runs in this process as the iterator reaches it. Every
    other part starts at once in its own forked, pinned child, so ``work``
    must depend on nothing but its part, and its items must be picklable
    and not ``None``. The iterator waits for each child in turn; a child
    that did not exit cleanly is a CognlpError, and a child's error is
    raised at its position, after the items before it.

    Leaving the block, normally or by an error, kills and reaps every child
    not yet waited for, closes every spool and restores this process's CPU
    affinity, so no child outlives the block and no file is left behind.
    """
    spools: list[IO[bytes]] = []
    pids: list[int] = []
    running: set[int] = set()
    mask = os.sched_getaffinity(0) if len(parts) > 1 else None

    def items() -> Iterator[T]:
        yield from work(parts[0])
        for pid, spool in zip(pids, spools):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise CognlpError(f"a worker process {how}")
            spool.seek(0)
            while (item := pickle.load(spool)) is not None:
                if isinstance(item, CognlpError):
                    raise item
                yield item

    try:
        if mask is not None:
            import tempfile  # only a run that forks pays for this import

            cpus = sorted(mask)
            os.sched_setaffinity(0, {cpus[0]})
        for i, part in enumerate(parts[1:], 1):
            spools.append(tempfile.TemporaryFile("w+b"))
            pids.append(_fork(work, part, spools[-1], cpus[i % len(cpus)]))
            running.add(pids[-1])
        yield items()
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()
        if mask is not None:
            os.sched_setaffinity(0, mask)


def by_fold(work: Callable[[int], T], k: int) -> Iterator[T]:
    """``work(fold)`` for folds ``0..k-1``, in fold order.

    The folds split into ``min(max_parts(), k)`` contiguous groups run by
    ``ordered``, so ``work`` must depend on nothing but its fold and return
    a picklable result. A fold's error is raised at that fold's position,
    after the results of every fold before it. The block ends before the
    last result is handed out, so a caller that takes exactly ``k`` results
    is no longer pinned while it handles the last one.
    """
    with ordered(functools.partial(map, work), split(range(k), max_parts())) as results:
        # yield from, not a loop variable: no result stays referenced here
        # while the next fold trains (peak memory)
        yield from itertools.islice(results, max(k - 1, 0))
        last = list(results)  # at most the one result left
    while last:
        yield last.pop()  # not kept here once handed out
