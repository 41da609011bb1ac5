"""Forked worker processes, shared by simulate and ingest.

A caller hands `forked` a function, a job, a list of tasks and the most
workers its input can use, and takes each task's result through the
take(i) it yields; this module alone decides whether the tasks run in
forked workers or in process.  The workers inherit the job at fork time
(fork does not pickle the initializer's arguments), so only each task
and its result cross a pipe.  There is one worker per allowed CPU
(os.sched_getaffinity, so `taskset` limits the count), at most the
caller's `most`; each task runs in process instead, when it is taken,
when that is fewer than two, when the platform cannot fork, when other
threads are running (a fork copies no thread but the caller's, and any
lock another thread holds stays held in the child), or when the pool
cannot start.  multiprocessing is imported only when a pool starts.
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
) -> Iterator[Callable[[int], Any]]:
    """Yields take(i), which returns work(job, tasks[i]) and raises what
    that call raised.  In forked workers every task is started in task
    order and take waits for its result; in process (see the module
    docstring) take runs the task itself, so each task runs only when,
    and in the order, it is taken.

    A worker that dies raises WorkerDiedError, its message starting with
    `died`.  Leaving the block shuts the pool down, dropping tasks not
    yet started (an error, an interrupt or a dead worker ends the wait
    early).  take drops each result it returns.
    """

    def run(i: int) -> Any:
        return work(job, tasks[i])

    workers = min(allowed_cpus(), most)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        yield run
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
        yield run
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
            yield run
            return

        def take(i: int) -> Any:
            future, futures[i] = futures[i], None
            try:
                return future.result()
            except BrokenProcessPool as exc:
                raise WorkerDiedError(f"{died}: {exc}") from None

        yield take
    finally:
        pool.shutdown(cancel_futures=True)
