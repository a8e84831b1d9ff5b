"""Keeps every process a benchmark run starts from outliving the run.

A run forks label workers (otreward's process pool) and calibration helpers,
and starts short-lived interpreters to time set-up. On a normal exit they are
all joined already; these guards cover the other ways out:

- every forked child asks the kernel for SIGKILL when the process that forked
  it dies, so even a run killed outright takes its workers with it (Linux);
- SIGTERM, and a deadline alarm a little under the 180 s a run may take,
  kill every descendant, reap them and exit non-zero without a result;
- on the way out, multiprocessing's children are joined, the resource tracker
  or fork server a spawn pool may have started is stopped, and any process
  still below this one is killed and reaped.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import signal
import sys
from pathlib import Path

DEADLINE_S = 170
EXIT_STOPPED = 3
_PR_SET_PDEATHSIG = 1
_forker = os.getpid()


def _child_pids(pid: int) -> list[int]:
    """Processes whose parent is pid, read from /proc (none where it is missing)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        with contextlib.suppress(OSError, ValueError):
            stat = (entry / "stat").read_text()
            if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
                found.append(int(entry.name))
    return found


def kill_descendants() -> None:
    """SIGKILL every process below this one, deepest first; reap the direct children."""
    def below(pid):
        for child in _child_pids(pid):
            yield from below(child)
            yield child

    direct = _child_pids(os.getpid())
    for pid in list(below(os.getpid())):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for pid in direct:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def _note_forker() -> None:
    global _forker
    _forker = os.getpid()


def _die_with_forker() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):  # no prctl outside Linux
        return
    if os.getppid() != _forker:  # the forker died before prctl took effect
        os._exit(1)


def _stop_now(signum, frame) -> None:
    reason = "deadline passed" if signum == signal.SIGALRM else f"signal {signum}"
    # sys.__stderr__: a CLI step may have redirected sys.stderr to capture it.
    print(f"error: {reason}; stopping every process of the run", file=sys.__stderr__,
          flush=True)
    kill_descendants()
    os._exit(EXIT_STOPPED)


def install(deadline: bool) -> None:
    """Guard this run's processes; with deadline, also stop it after DEADLINE_S."""
    os.register_at_fork(before=_note_forker, after_in_child=_die_with_forker)
    signal.signal(signal.SIGTERM, _stop_now)
    if deadline:
        signal.signal(signal.SIGALRM, _stop_now)
        signal.alarm(DEADLINE_S)


def stop_all() -> None:
    """Join multiprocessing's children, stop its helper processes, kill what is left.

    A spawn or forkserver pool, whether the benchmark's or otreward's, starts
    a resource tracker and perhaps a fork server that would otherwise outlive
    this process; stopping them here waits until each has ended.
    """
    signal.alarm(0)
    for child in multiprocessing.active_children():
        child.join(5)
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()
    kill_descendants()
