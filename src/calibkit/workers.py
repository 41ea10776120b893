"""Forked workers: the independent items of a computation run on every CPU.

This process and its forked children each take the next item index from one
pipe, and a child sends its results back through a pipe of its own as a
pickle. A fork copies nothing up front, so a child reads the caller's arrays
and closures as they are.

The result, errors and warnings are the serial ones. A worker runs with
warnings as errors, and whatever a failed worker (an exception, a warning or
a kill) was computing is computed again here. Every child has been reaped when
forked_items returns or raises, and none returns into the caller. A worker
never forks again, nor does this process while its workers run, so there are
never more processes than CPUs.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings

# True in a worker, and in this process while it runs a pool of workers
_in_pool = False
# forked_items writes its 4-byte item tickets into an empty pipe at once: at
# most 512 bytes, POSIX's least PIPE_BUF, so that write never blocks
MAX_TICKETS = 128


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _can_fork() -> bool:
    # forking while another thread runs can deadlock the child
    return not _in_pool and hasattr(os, "fork") and threading.active_count() == 1


def worker_count(items: int, work: int, work_per_worker: int) -> int:
    """How many processes to run `items` items of `work` units on: one per
    work_per_worker units, at most one per item and per CPU, and one when
    this process cannot safely fork (in a worker, for one)."""
    if not _can_fork():
        return 1
    return max(1, min(_cpu_count(), items, work // work_per_worker))


def _take(fd: int, count: int, tickets: int):
    """The items of each ticket read from fd until it runs out; ticket t
    holds the items [t * count // tickets, (t + 1) * count // tickets)."""
    while ticket := os.read(fd, 4):  # 4 bytes or none: every read is of 4
        t = int.from_bytes(ticket, "little")
        yield from range(t * count // tickets, (t + 1) * count // tickets)


def forked_items(fn, count: int, processes: int) -> list:
    """[fn(i) for i in range(count)], where every fn(i) can be pickled.

    With processes > 1, up to processes - 1 forked workers and this process
    take the items in turn, so one long item does not leave a CPU idle. A
    worker sends back [[i, fn(i)], ...] as a pickle, so each result equals the
    serial one in type and in bits. While the workers run, this process
    computes its items with warnings as errors. Afterwards it computes again,
    in index order, every item that failed here or in a worker or that a
    failed worker took, so errors and warnings are those of the serial code.
    With one process, when this process cannot fork, or when pipe or fork
    raises OSError, the items are computed here.
    """
    global _in_pool
    results = {}
    processes = min(processes, count)
    if processes > 1 and _can_fork():
        tickets = min(count, MAX_TICKETS)
        take = None  # the read end of the ticket pipe
        fds = []  # the pipe ends still open here
        replies = {}  # pid of each worker not yet reaped -> the read end of its reply pipe
        _in_pool = True
        try:
            try:
                take, put = os.pipe()
                fds.append(take)
                try:
                    os.write(put, b"".join(t.to_bytes(4, "little") for t in range(tickets)))
                finally:
                    os.close(put)  # so that a read past the last ticket ends
                for _ in range(1, processes):
                    back, reply = os.pipe()
                    fds.append(back)
                    try:
                        pid = os.fork()
                        if pid == 0:  # a worker: it never returns into the caller
                            try:
                                warnings.simplefilter("error")
                                done = [[i, fn(i)] for i in _take(take, count, tickets)]
                                with os.fdopen(reply, "wb") as out:
                                    pickle.dump(done, out, protocol=5)
                                os._exit(0)
                            finally:
                                os._exit(1)
                        replies[pid] = back
                    finally:
                        os.close(reply)
            except OSError:
                pass  # the items that no worker takes are computed here
            if take is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    for i in _take(take, count, tickets):
                        try:
                            results[i] = fn(i)
                        except Exception:
                            pass  # computed again below, as the serial code would
            for pid, back in list(replies.items()):
                fds.remove(back)
                with os.fdopen(back, "rb") as reply:
                    data = reply.read()
                del replies[pid]
                if os.waitpid(pid, 0)[1] == 0:
                    results.update(pickle.loads(data))
        finally:
            _in_pool = False
            for fd in fds:
                os.close(fd)
            if replies:
                # signal is imported only when needed: at module level it
                # would add to every start-up of the CLI
                import signal

                for pid in replies:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return [results[i] if i in results else fn(i) for i in range(count)]
