"""Forked workers: one function run over W shares, share 0 in the calling
process and each other share in a child forked for it.

Children inherit everything the caller made before the call, so nothing but
each share's result is pickled, through a pipe.  The cross-validation's fold
pool (`experiment`) and the dense parse (`dataset`) both run on `run_shares`.
A raw fork is used, not `multiprocessing`, whose import adds resident memory
to the calling process, and not a spawn pool, which would pickle the inputs.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from collections.abc import Callable
from contextlib import suppress
from typing import BinaryIO, TypeVar

__all__ = ["WorkerExit", "usable_cpus", "run_shares"]

R = TypeVar("R")


class WorkerExit(RuntimeError):
    """A share's child exited without writing its result."""

    def __init__(self, status: int):
        super().__init__(f"worker exited with status {status}")
        self.status = status


def usable_cpus() -> int:
    """The CPUs this process may run on, so `taskset -c 0` makes every pool
    serial; 1 where os.fork is missing, and while another Python thread
    runs, since a forked child holds a copy of that thread's locks but not
    the thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start(share: Callable[[int], object], r: int) -> tuple[int, BinaryIO]:
    """Fork a child that writes share(r), pickled, into a pipe and exits;
    returns its pid and the pipe's read end."""
    read, write = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns in the parent, after the child exists, when BLAS
        # has started threads; OpenBLAS quiesces them across fork itself
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump(share(r), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def run_shares(W: int, share: Callable[[int], R]) -> list[R | WorkerExit]:
    """[share(0), ..., share(W - 1)]: a child is forked for each share from
    1 on, then share 0 runs in this process.  A child that exits without a
    result gives a WorkerExit with its exit status in its share's place.  If
    this process raises or is interrupted, its children are killed; every
    child is reaped before this returns or raises."""
    children = []  # (pid, pipe) of each child not yet reaped
    try:
        for r in range(1, W):
            children.append(_start(share, r))
        results: list[R | WorkerExit] = [share(0)]
        while children:
            pid, pipe = children[0]
            with pipe:
                blob = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            results.append(pickle.loads(blob) if status == 0 else WorkerExit(status))
    finally:
        for pid, pipe in children:
            pipe.close()
            with suppress(ProcessLookupError, ChildProcessError):  # reaped already, when interrupted just after
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results
