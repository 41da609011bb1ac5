"""Forked worker processes, shared by simulate and ingest.

A caller imports this module only when its input holds work for two
workers or more, and hands `forked` a function, a job and a list of
tasks.  The workers inherit the job at fork time (fork does not pickle
the initializer's arguments), so only each task and its result cross a
pipe.  There is one worker per allowed CPU (os.sched_getaffinity, so
`taskset` limits the count), at most the caller's `most`; the work runs
in process instead when that is fewer than two, when the platform cannot
fork, when other threads are running (a fork copies no thread but the
caller's, and any lock another thread holds stays held in the child), or
when the pool cannot start.  multiprocessing is imported only then.
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from .errors import WorkerDiedError


def allowed_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity masks on this platform
        return os.cpu_count() or 1


# A forked worker's (function, job): set in each worker by the pool
# initializer, never in the calling process.
_work: tuple[Callable[[Any, Any], Any], Any] | None = None


def _adopt(work: Callable[[Any, Any], Any], job: Any) -> None:
    global _work
    _work = (work, job)


def _run(task: Any) -> Any:
    work, job = _work
    return work(job, task)


@contextmanager
def forked(
    work: Callable[[Any, Any], Any], job: Any, tasks: Sequence[Any], most: int, died: str
) -> Iterator[Callable[[int], Any] | None]:
    """Runs work(job, task) for every task in forked workers, started in
    task order; yields take(i), which waits for the result of tasks[i]
    and raises what that call raised, or None when the work should run
    in process (see the module docstring).

    A worker that dies raises WorkerDiedError, its message starting with
    `died`.  Leaving the block shuts the pool down, dropping tasks not
    yet started (an error, an interrupt or a dead worker ends the wait
    early).  take drops each result it returns.
    """
    workers = min(allowed_cpus(), most)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield None
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    children = set(multiprocessing.active_children())
    try:
        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(work, job),
        )
    except OSError:
        yield None
        return
    try:
        try:
            # A fork-context pool forks all its workers in the first submit.
            futures = [pool.submit(_run, task) for task in tasks]
        except OSError:
            # A fork was refused: stop the workers that did start.
            for child in set(multiprocessing.active_children()) - children:
                child.terminate()
                child.join()
            futures = None

        def take(i: int) -> Any:
            future, futures[i] = futures[i], None
            try:
                return future.result()
            except BrokenProcessPool as exc:
                raise WorkerDiedError(f"{died}: {exc}") from None

        yield None if futures is None else take
    finally:
        pool.shutdown(cancel_futures=True)
