"""Times rescaled to a reference CPU, for a host whose CPUs slow down.

On a shared host each CPU slows by up to half, independently of the
other, while other tenants load it, and such spells last seconds to tens
of seconds.  So the raw wall time of one call varies by up to 2x.  Here
time is counted in units of a fixed pure-Python loop, timed on the CPU
that ran the work just before and just after it, and rescaled to a CPU
on which the loop takes ``SPIN_REFERENCE_S``.

The timed program is never confined to one CPU: it is moved now and then
so that the CPU it leaves can be timed, and is free to use every CPU.
"""
from __future__ import annotations

import os
import random
import select
import statistics
import subprocess
import time

SPIN_REFERENCE_S = 0.0025
SLICE_S = 0.5
TICK_S = 1 / os.sysconf("SC_CLK_TCK")

# The loop looks up random keys of a table of some tens of MB, each
# repeat other keys, so it misses the caches as the program does.  On a
# 2-vCPU host a loop that only added integers slowed by less than the
# program when other tenants loaded the host (log-log slope 1.6); this
# one slows by the same factor (slope 0.97).
_TABLE = {i * 7919 % 1_000_003: [i] for i in range(200_000)}
_KEYS = random.Random(1).sample(sorted(_TABLE), 20_000)
REPEATS = 5


def spin_time(cpu: int) -> float:
    """Median time of the fixed loop on ``cpu``, right now."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        times = []
        step = len(_KEYS) // REPEATS
        for r in range(REPEATS):
            start = time.perf_counter()
            total = 0
            for key in _KEYS[r * step:(r + 1) * step]:
                total += _TABLE[key][0]
            times.append(time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(times)


def spin() -> float:
    """Mean loop time over the CPUs this process may use."""
    return statistics.mean(spin_time(cpu) for cpu in sorted(os.sched_getaffinity(0)))


def factor(spin_before: float, spin_after: float) -> float:
    """Multiply a time measured between the two loop timings by this."""
    return 2 * SPIN_REFERENCE_S / (spin_before + spin_after)


def _usage(pid: int) -> tuple[float, int]:
    """CPU seconds used by ``pid``, its threads and its live and reaped
    descendants, and the CPU that ``pid`` last ran on."""
    busy, todo, cpu = 0.0, [pid], None
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    todo += map(int, fh.read().split())
        except FileNotFoundError:  # exited meanwhile
            continue
        busy += sum(int(f) for f in fields[11:15]) * TICK_S  # utime stime cutime cstime
        if p == pid:
            cpu = int(fields[36])
    if cpu is None:
        raise ProcessLookupError(pid)
    return busy, cpu


def _move(pid: int, cpu: int, allowed: list[int]) -> None:
    """Migrate ``pid`` to ``cpu`` and leave it free to run on ``allowed``."""
    os.sched_setaffinity(pid, {cpu})
    os.sched_setaffinity(pid, allowed)


def timed(argv: list[str], **popen) -> tuple[float, float, int]:
    """Run ``argv`` to its end; return its wall time, its rescaled wall
    time and its exit code.

    The program starts on the fastest CPU and is moved to the next CPU
    every ``SLICE_S``.  While it keeps at most one CPU busy, the CPU it
    runs on is idle at both ends of each slice, so the loop is timed
    there then and the slice is rescaled by it.  A slice in which it kept
    more than one CPU busy leaves no CPU idle to time the loop on; it is
    rescaled by the mean loop time over all CPUs before the call.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speeds = {c: spin_time(c) for c in cpus}
    mean_spin = statistics.mean(speeds.values())
    cpu = min(cpus, key=speeds.get)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    pidfd = os.pidfd_open(proc.pid)
    try:
        scaled, slice_start, slice_spin, slice_busy = 0.0, start, speeds[cpu], 0.0
        try:
            _move(proc.pid, cpu, cpus)
        except ProcessLookupError:
            pass
        while not select.select([pidfd], [], [], SLICE_S)[0]:
            try:
                busy, cpu = _usage(proc.pid)
            except ProcessLookupError:  # exited since the select
                continue
            now = time.perf_counter()
            if busy - slice_busy > 1.5 * (now - slice_start):
                scaled += (now - slice_start) * factor(slice_spin, mean_spin)
                slice_start, slice_spin, slice_busy = now, mean_spin, busy
                continue
            nxt = cpus[(cpus.index(cpu) + 1) % len(cpus)]
            if nxt == cpu:
                continue
            nxt_spin = spin_time(nxt)
            try:
                _move(proc.pid, nxt, cpus)
            except ProcessLookupError:
                continue
            moved = time.perf_counter()
            scaled += (moved - slice_start) * factor(slice_spin, spin_time(cpu))
            cpu, slice_start, slice_spin, slice_busy = nxt, moved, nxt_spin, busy
        _, status = os.waitpid(proc.pid, 0)
        end = time.perf_counter()
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    scaled += (end - slice_start) * factor(slice_spin, spin_time(cpu))
    return end - start, scaled, proc.returncode
