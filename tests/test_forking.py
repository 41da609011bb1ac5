"""The fork helper: where forking.forked runs each task, and what take gives back."""
from __future__ import annotations

import threading

import pytest

from ufesim import simulate
from ufesim.forking import forked
from ufesim.simulate import SimulationConfig, compare_scenarios

TASKS = ["a", "bad", "c"]


def _work(job, task):
    if task == "bad":
        raise KeyError(task)
    return job + task


@pytest.mark.parametrize("cpus", [1, 2])
def test_take_returns_each_result_and_raises_each_error(cpus, allow_cpus):
    with allow_cpus(cpus) as pids, forked(_work, "job:", TASKS, len(TASKS), "died") as take:
        assert take(2) == "job:c"
        with pytest.raises(KeyError, match="bad"):
            take(1)
        assert take(0) == "job:a"
    assert len(pids) == (2 if cpus > 1 else 0)


def test_in_process_take_runs_a_task_only_when_taken(allow_cpus):
    ran = []

    def work(job, task):
        ran.append(task)
        return _work(job, task)

    # One worker's worth of work: in process, though two CPUs are allowed.
    with allow_cpus(2) as pids, forked(work, "job:", TASKS, 1, "died") as take:
        assert ran == []
        assert take(2) == "job:c"
        assert ran == ["c"]
        with pytest.raises(KeyError, match="bad"):
            take(1)
        assert take(0) == "job:a"
    assert ran == ["c", "bad", "a"]
    assert pids == []


def test_another_thread_keeps_the_replicates_in_process(mixed_pools, allow_cpus, monkeypatch):
    """A fork copies only the calling thread, so while another runs,
    compare_scenarios plays every block in process, to the same output."""
    monkeypatch.setattr(simulate, "_MIN_BLOCK", 50)
    configs = [SimulationConfig(n_matches=150, seed=4242, reduction_x=x) for x in (0.0, 1.0)]
    with allow_cpus(2) as pids:
        expected = compare_scenarios(configs, mixed_pools)
    assert len(pids) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with allow_cpus(2) as pids:
            assert compare_scenarios(configs, mixed_pools) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert pids == []
