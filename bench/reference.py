"""Machine speed, sampled while a timed command runs.

On a shared host the same code runs at one of two speeds, about 45% apart,
and the state changes every 0.1 to 1 s, as neighbours load the core. A time
measured there mixes the program's cost with the share of the time the host
spent in its slow state. A ``SpeedSampler`` measures that share during the
timed code itself: it arms an interval timer, and every ``interval`` seconds
its SIGALRM handler runs one fixed piece of reference work twice in the main
thread, between two bytecodes of the timed code, and records how long the
second run took. The work does not depend on calibkit or on the workload
seed, so a change to calibkit leaves it alone, while the host's state slows
it and the timed code alike.

A timed span then reports ``net_s``, its wall time less the time the handler
took, and ``nominal_s``, ``net_s`` times the nominal work time over the mean
sampled work time: the span's time at the host's fast speed. The two kinds
of work below mix the kinds of code the workloads run: a pure-Python float
parse and block merge (as in ``read_logits`` and ``pav``), and, for
``mixed_work``, small-array numpy (as in a PTS step) and whole-array numpy
over 5k values (as in ``apply`` and the metrics). ``python_work`` needs no
numpy, so that it can time an import that loads numpy itself.

No object that the handler makes outlives it: samples, counters and the
work's results go into buffers made before the timed span. A small object
that outlived a tick, even one parked on a free list, would pin an
allocator arena that the timed code later frees around it, and the pinned
arenas add 10 MB or more to the peak memory the benchmark reports.

At load time this module imports only ``array``, ``math``, ``signal`` and
``time``, so that it leaves an import it times almost as it finds it.
"""

from __future__ import annotations

import math
import signal
import time
from array import array

INTERVAL_S = 0.04
# one piece of work at the host's fast speed, measured on the 2-vCPU Xeon
# host the benchmark was tuned on; any fixed value would do, it only sets
# the scale of the nominal times
NOMINAL_S = {"python_work": 2.1e-4, "mixed_work": 3.5e-4}
# samples one span can hold; a 170 s span at 40 ms needs 4250
CAPACITY = 8192

_TEXT = [",".join(f"{2.0 * math.sin(1.7 * (10 * row + col)):.6f}" for col in range(10)) for row in range(40)]
_MEANS = array("d", bytes(8 * 400))
_SIZES = array("d", bytes(8 * 400))
_arrays: dict = {}


def python_work() -> float:
    """Parse fixed CSV text and merge it into non-decreasing blocks."""
    means, sizes = _MEANS, _SIZES
    top = 0
    for line in _TEXT:
        for cell in line.split(","):
            v, s = float(cell), 1.0
            while top and v <= means[top - 1]:
                top -= 1
                v = (means[top] * sizes[top] + v * s) / (sizes[top] + s)
                s += sizes[top]
            means[top], sizes[top] = v, s
            top += 1
    return means[0] + top


def mixed_work() -> float:
    """python_work, a small tempered softmax and whole-array numpy."""
    import numpy as np

    a = _arrays
    if not a:
        rng = np.random.default_rng(12345)
        a.update(small=rng.standard_normal((200, 10)), w=rng.standard_normal((10, 5)),
                 large=rng.standard_normal(5_000), h=np.empty((200, 5)), row=np.empty((200, 1)),
                 x=np.empty(5_000), y=np.empty(5_000))
    acc = python_work()
    small, w, large, h, row, x, y = (a[k] for k in ("small", "w", "large", "h", "row", "x", "y"))
    # ufuncs and their methods only: numpy's Python-level wrappers (np.max,
    # np.clip, ...) leave objects on the interpreter's free lists
    for _ in range(3):
        np.matmul(small, w, out=h)
        np.tanh(h, out=h)
        np.maximum.reduce(h, axis=1, keepdims=True, out=row)
        np.subtract(h, row, out=h)
        np.exp(h, out=h)
        np.add.reduce(h, axis=1, keepdims=True, out=row)
        np.divide(h, row, out=h)
        acc += float(np.add.reduce(h, axis=None))
    np.minimum(large, 5.0, out=x)
    np.maximum(x, -5.0, out=x)
    np.exp(x, out=x)
    np.positive(x, out=y)
    y.sort()
    acc += float(np.add.reduce(y[::100]))
    np.subtract(x, np.add.reduce(x) / len(x), out=y)
    np.abs(y, out=y)
    return acc + float(np.add.reduce(y))


class SpeedSampler:
    """Times one span (``with sampler: ...``) and samples the host's speed
    during it; see the module docstring. Not reentrant; main thread only."""

    def __init__(self, work=mixed_work, interval: float = INTERVAL_S):
        self.work = work
        self.interval = interval
        self.nominal = NOMINAL_S[work.__name__]
        work()  # first-call costs (imports, array set-up) stay out of the samples
        self._samples = array("d", bytes(8 * CAPACITY))
        self._state = array("d", [0.0, 0.0])  # samples taken, seconds spent sampling
        self.wall = 0.0

    def _sample(self) -> None:
        """Run the work twice and keep the second time as the sample: the
        first run reloads the caches that the timed code evicted, so that
        the timed code's footprint does not set the sample."""
        start = time.perf_counter()
        self.work()
        mid = time.perf_counter()
        self.work()
        end = time.perf_counter()
        state = self._state
        n = int(state[0])
        if n < CAPACITY:
            self._samples[n] = end - mid
            state[0] = n + 1
        state[1] += end - start

    def _tick(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> SpeedSampler:
        self._state[0] = self._state[1] = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        spent = self._state[1]
        if not self._state[0]:  # a span shorter than the interval: sample right after it
            self._sample()
            self._state[1] = spent

    @property
    def samples(self) -> list[float]:
        return self._samples[: int(self._state[0])].tolist()

    @property
    def spent(self) -> float:
        return self._state[1]

    @property
    def net_s(self) -> float:
        return self.wall - self.spent

    @property
    def mean_sample_s(self) -> float:
        samples = self.samples
        return sum(samples) / len(samples)

    @property
    def nominal_s(self) -> float:
        return self.net_s * self.nominal / self.mean_sample_s

    def record(self) -> dict:
        return {"wall_s": self.wall, "net_s": self.net_s, "nominal_s": self.nominal_s,
                "samples": len(self.samples), "mean_sample_s": self.mean_sample_s}
