"""Forked workers: a computation cut into shares or items runs on every CPU.

forked_map cuts it into fixed shares: this process computes the first share,
and each other share is computed by a forked child, which writes its result
into an anonymous shared mmap made before the fork. forked_items hands out
items in turn: this process and its forked children each take the next item
index from one pipe, and a child sends its results back as JSON text through
a pipe of its own. A fork copies nothing up front, so a child reads the
caller's arrays and closures as they are.

Both give the serial result, errors and warnings. A worker runs with warnings
as errors, and whatever a failed worker (an exception, a warning or a kill)
was computing is computed again here. Every child has been reaped when either
returns or raises, and none returns into the caller. A worker never forks
again, nor does this process while its workers run, so there are never more
processes than CPUs.
"""

from __future__ import annotations

import os
import threading
import warnings

import numpy as np

# True in a worker, and in this process while its workers run
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
    """How many shares to cut `items` items of `work` units into: one per
    work_per_worker units, at most one per item and per CPU, and one when
    this process cannot safely fork (in a worker, for one)."""
    if not _can_fork():
        return 1
    return max(1, min(_cpu_count(), items, work // work_per_worker))


class _Workers:
    """The forked children of one call. Leaving the with block kills and reaps
    those not yet reaped, and ends this process's time in the pool."""

    def __enter__(self):
        self.pids = {}  # key -> pid, for the children not yet reaped
        self.outer = _in_pool
        return self

    def fork(self, key, work) -> bool:
        """Run work() in a forked child with warnings as errors; False when
        fork raises OSError."""
        global _in_pool
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:  # the child: it never returns into the caller
            try:
                _in_pool = True
                warnings.simplefilter("error")
                work()
                os._exit(0)
            finally:
                os._exit(1)
        self.pids[key] = pid
        _in_pool = True
        return True

    def succeeded(self, key) -> bool:
        """Reap child `key`: whether it exited 0."""
        return os.waitpid(self.pids.pop(key), 0)[1] == 0

    def __exit__(self, *exc):
        global _in_pool
        _in_pool = self.outer
        if self.pids:
            # signal is imported only when needed: at module level it would
            # add to every start-up of the CLI
            import signal

            for pid in self.pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def forked_map(fn, shares: list, dtype) -> list[np.ndarray]:
    """[fn(share) for share in shares], where fn(share) is a 1-D array of
    dtype with at most len(share) entries.

    This process computes the first share and every share it did not fork:
    those beyond one per CPU, or all of them when it cannot fork or mmap or
    fork raises OSError. If a worker fails, this process computes its share.
    """
    dtype = np.dtype(dtype)
    bufs = {}  # share index -> the shared buffer of its worker
    with _Workers() as pool:
        if len(shares) > 1 and _can_fork():
            # mmap is imported only when needed: at module level it (and
            # signal) would add about 0.9 ms to every start-up of the CLI
            import mmap

            def work(i, buf):
                out = np.asarray(fn(shares[i]), dtype=dtype)
                np.frombuffer(buf, dtype, out.size, offset=8)[:] = out
                buf[:8] = out.size.to_bytes(8, "little")

            try:
                for i in range(1, min(len(shares), _cpu_count())):
                    buf = mmap.mmap(-1, 8 + len(shares[i]) * dtype.itemsize)
                    if not pool.fork(i, lambda i=i, buf=buf: work(i, buf)):
                        break
                    bufs[i] = buf
            except OSError:
                pass  # the shares not forked are computed here
        results = []
        for i, share in enumerate(shares):
            if i in bufs and pool.succeeded(i):
                buf = bufs[i]
                results.append(np.frombuffer(buf, dtype, int.from_bytes(buf[:8], "little"), offset=8))
            else:
                results.append(fn(share))
        return results


def _take(fd: int, count: int, tickets: int):
    """The items of each ticket read from fd until it runs out; ticket t
    holds the items [t * count // tickets, (t + 1) * count // tickets)."""
    while ticket := os.read(fd, 4):  # 4 bytes or none: every read is of 4
        t = int.from_bytes(ticket, "little")
        yield from range(t * count // tickets, (t + 1) * count // tickets)


def forked_items(fn, count: int, processes: int) -> list:
    """[fn(i) for i in range(count)], where fn(i) is a JSON document: dicts
    with str keys, lists, str, int, float, bool and None.

    With processes > 1, up to processes - 1 forked workers and this process
    take the items in turn, so one long item does not leave a CPU idle. A
    worker sends back [[i, fn(i)], ...] as JSON text; Python's float repr
    round-trips exactly, so the documents equal the serial ones. While the
    workers run, this process computes its items with warnings as errors.
    Afterwards it computes again, in index order, every item that failed here
    or in a worker or that a failed worker took, so errors and warnings are
    those of the serial code. With one process, when this process cannot
    fork, or when pipe or fork raises OSError, the items are computed here.
    """
    results = {}
    processes = min(processes, count)
    if processes > 1 and _can_fork():
        import json

        tickets = min(count, MAX_TICKETS)
        take = None  # the read end of the ticket pipe
        fds = []  # the pipe ends still open here
        replies = {}  # worker -> the read end of its reply pipe
        with _Workers() as pool:
            try:
                try:
                    take, put = os.pipe()
                    fds.append(take)
                    try:
                        os.write(put, b"".join(t.to_bytes(4, "little") for t in range(tickets)))
                    finally:
                        os.close(put)  # so that a read past the last ticket ends
                    for k in range(1, processes):
                        back, reply = os.pipe()
                        fds.append(back)

                        def work(reply=reply):
                            docs = [[i, fn(i)] for i in _take(take, count, tickets)]
                            with os.fdopen(reply, "wb") as out:
                                out.write(json.dumps(docs).encode())

                        try:
                            forked = pool.fork(k, work)
                        finally:
                            os.close(reply)
                        if not forked:
                            break
                        replies[k] = back
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
                    for k, back in replies.items():
                        fds.remove(back)
                        with os.fdopen(back, "rb") as reply:
                            text = reply.read()
                        if pool.succeeded(k):
                            results.update(json.loads(text))
            finally:
                for fd in fds:
                    os.close(fd)
    return [results[i] if i in results else fn(i) for i in range(count)]
