import os
import threading

import pytest

from calibkit import experiments, io_files, metrics, scaling, workers


@pytest.fixture
def force_workers(monkeypatch):
    """force_workers(cpus) makes this process report `cpus` CPUs and drops
    every cut-over of calibkit's forked paths to one unit of work, so that
    each of them forks whenever it can; it returns the list of os.fork calls
    made, each as the number of threads alive at the call."""

    def force(cpus: int) -> list[int]:
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(workers, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(io_files, "VALUES_PER_WORKER", 1)
        monkeypatch.setattr(scaling, "ETS_ROWS_PER_WORKER", 1)
        monkeypatch.setattr(metrics, "KDE_TERMS_PER_WORKER", 1)
        monkeypatch.setattr(experiments, "ITEM_ROWS_PER_WORKER", 1)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    return force

