"""Forked workers: a computation cut into shares runs on every CPU.

This process computes the first share; each other share is computed by a
forked child, which writes its result into an anonymous shared mmap made
before the fork. A fork copies nothing up front, so a child reads the
caller's arrays and closures as they are, and no result is pickled.
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    # forking while another thread runs can deadlock the child
    return hasattr(os, "fork") and threading.active_count() == 1


def worker_count(items: int, work: int, work_per_worker: int) -> int:
    """How many shares to cut `items` items of `work` units into: one per
    work_per_worker units, at most one per item and per CPU, and one when
    this process cannot safely fork."""
    if not _can_fork():
        return 1
    return max(1, min(_cpu_count(), items, work // work_per_worker))


def forked_map(fn, shares: list, dtype) -> list[np.ndarray]:
    """[fn(share) for share in shares], where fn(share) is a 1-D array of
    dtype with at most len(share) entries.

    This process computes the first share and every share it did not fork:
    those beyond one per CPU, or all of them when it cannot fork or mmap or
    fork raises OSError. A worker runs with warnings as errors; if it fails
    (an exception, a warning or a kill), this process computes its share
    itself, so errors and warnings are those of the serial code. Every child
    has been reaped when this returns or raises, and none returns into the
    caller.
    """
    dtype = np.dtype(dtype)
    forks = min(len(shares), _cpu_count()) - 1 if _can_fork() else 0
    children = {}  # share index -> (pid, shared buffer)
    running = set()  # the children not yet reaped: only these may be killed
    try:
        if forks > 0:
            # mmap and signal are imported only when needed: at module level
            # they would add about 0.9 ms to every start-up of the CLI
            import mmap

            try:
                for i in range(1, 1 + forks):
                    buf = mmap.mmap(-1, 8 + len(shares[i]) * dtype.itemsize)
                    pid = os.fork()
                    if pid == 0:  # the child: it never returns into the caller
                        try:
                            warnings.simplefilter("error")
                            out = np.asarray(fn(shares[i]), dtype=dtype)
                            np.frombuffer(buf, dtype, out.size, offset=8)[:] = out
                            buf[:8] = out.size.to_bytes(8, "little")
                            os._exit(0)
                        finally:
                            os._exit(1)
                    running.add(pid)
                    children[i] = (pid, buf)
            except OSError:
                pass  # the shares not forked are computed here
        results = []
        for i, share in enumerate(shares):
            if i in children:
                pid, buf = children[i]
                status = os.waitpid(pid, 0)[1]
                running.discard(pid)
                if status == 0:
                    results.append(np.frombuffer(buf, dtype, int.from_bytes(buf[:8], "little"), offset=8))
                    continue
            results.append(fn(share))
        return results
    finally:
        if running:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
