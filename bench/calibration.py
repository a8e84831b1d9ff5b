"""A fixed calibration loop that tracks how fast this machine runs right now.

On a shared host the same code runs up to twice as fast in one stretch of
seconds as in the next, which swamps the changes the benchmark must resolve.
Every run therefore interleaves its workload steps with this loop, which is
the benchmark's own code and never changes with otreward: a small log-domain
Sinkhorn in NumPy and a pure-Python loop, the same kinds of work the
workloads do. A step's time divided by the loop's time in the same run,
measured with as many processes busy as the step keeps busy, cancels most of
the drift; multiplying by REFERENCE_S turns the ratio back into seconds at a
fixed machine speed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time

import numpy as np

# Typical mean time of one calibrate() call on the machine the benchmark was
# sized on (2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4). Only ratios between
# runs matter; this constant just keeps the reported unit in seconds.
REFERENCE_S = 0.0047
# Share of each timed interval spent calibrating right after it.
BURST_SHARE = 0.25

_rng = np.random.default_rng(20230324)
_K = -20.0 * np.abs(_rng.normal(size=(40, 40)))


def calibrate() -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    t0 = time.perf_counter()
    v = np.zeros(_K.shape[1])
    for _ in range(60):
        s = _K + v[None, :]
        m = s.max(axis=1)
        u = -np.log(np.exp(s - m[:, None]).sum(axis=1)) - m
        s = _K + u[:, None]
        m = s.max(axis=0)
        v = -np.log(np.exp(s - m[None, :]).sum(axis=0)) - m
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


def calibrate_for(seconds: float) -> list[float]:
    """Run the loop until `seconds` have passed, at least once; return each time."""
    times = [calibrate()]
    while sum(times) < seconds:
        times.append(calibrate())
    return times


def _serve(conn) -> None:
    """Helper-process loop: calibrate for each duration received, until None."""
    while (seconds := conn.recv()) is not None:
        conn.send(calibrate_for(seconds))


class Clock:
    """Calibrates after each timed interval, for speed-normalized means.

    With processes > 1 the loop runs in this process and in processes - 1
    forked helper processes at once, so it sees the machine the way a step
    that keeps that many cores busy does. The helpers are plain processes
    fed through pipes, so this process runs no extra threads that a later
    fork could copy in a held state. Close the clock to stop and join them.
    """

    def __init__(self, processes: int = 1):
        self.calibration: list[float] = []
        self._helpers = []  # (process, connection) pairs
        ctx = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            mine, theirs = ctx.Pipe()
            helper = ctx.Process(target=_serve, args=(theirs,), daemon=True)
            helper.start()
            theirs.close()
            self._helpers.append((helper, mine))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        while self._helpers:
            helper, conn = self._helpers.pop()
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
            helper.join(5)
            if helper.exitcode is None:
                helper.kill()
                helper.join()

    def burst(self, after_seconds: float) -> None:
        """Calibrate for BURST_SHARE of the interval just timed."""
        seconds = BURST_SHARE * after_seconds
        for _, conn in self._helpers:
            conn.send(seconds)
        self.calibration.extend(calibrate_for(seconds))
        for _, conn in self._helpers:
            self.calibration.extend(conn.recv())

    def normalized(self, seconds: list[float]) -> float:
        """Mean of the timed intervals at reference machine speed."""
        mean_cal = sum(self.calibration) / len(self.calibration)
        return sum(seconds) / len(seconds) * REFERENCE_S / mean_cal
