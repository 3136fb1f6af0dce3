"""Run tasks that each return as many floats as the first on a second CPU.

``split`` has one caller, ``aggregate.score_table``, whose tasks are the
combination methods: one float per platform each. A forked child runs every
second task, sends all its floats through a pipe as one raw ``array('d')``,
so each keeps its bits, and ends with ``os._exit``; the parent runs the
others, reads the pipe to its end and reaps the child in a ``finally``. The
caller imports this module only above its measured break-even.
"""

from __future__ import annotations

import os
import signal
import sys
from array import array
from typing import Callable, Sequence


def _second_cpu() -> bool:
    """Whether a forked child may run on a CPU of its own: fork exists, the
    affinity set holds 2 CPUs or more, and the process runs one thread."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    threading = sys.modules.get("threading")  # without it, no thread was started
    if threading is not None and threading.active_count() > 1:
        return False
    return len(os.sched_getaffinity(0)) > 1


def _child(read: int, write: int, tasks: list, run: Callable) -> None:
    """In a forked child: write every task's floats in task order as one
    array('d') and exit, 0 only when every task gave as many floats as the
    first and every byte was written. Writes nothing to stdout or stderr."""
    code = 1
    try:
        os.close(read)
        floats = array("d")
        for done, task in enumerate(tasks):
            values = run(task)
            if len(floats) != done * len(values):  # a count unlike the first task's
                return
            floats.extend(values)
        with open(write, "wb") as out:
            out.write(floats)
        code = 0
    except BaseException:  # the parent runs this share itself on exit code 1
        pass
    finally:
        os._exit(code)


def split(tasks: Sequence, run: Callable[..., Sequence[float]]) -> list:
    """``[run(task) for task in tasks]``, with a forked child running
    ``tasks[1::2]`` on a second CPU while this process runs ``tasks[0::2]``.
    The child's share is taken when it exited 0 and sent as many floats per
    task as the first task gave, each task's as a ``memoryview`` of them.

    Any failure on either side, a data error included, gives the serial
    path: every task in order in this process, so an error keeps its class,
    message and order.
    """
    if len(tasks) < 2 or not _second_cpu():
        return [run(task) for task in tasks]
    parent, child = os.getpid(), None  # child: its pid, until it is reaped
    results = read = None
    try:
        read, write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                _child(read, write, tasks[1::2], run)
            child = pid
        finally:
            if os.getpid() != parent:  # an exception escaped the child before its own try
                os._exit(1)
            os.close(write)
        ours = [run(task) for task in tasks[0::2]]
        with open(read, "rb") as pipe:
            read = None
            data = memoryview(pipe.read())
        status = os.waitpid(child, 0)[1]
        child = None
        size, theirs = 8 * len(ours[0]), len(tasks[1::2])
        if os.waitstatus_to_exitcode(status) == 0 and len(data) == size * theirs:
            results = [None] * len(tasks)
            results[0::2] = ours
            results[1::2] = [data[k * size : (k + 1) * size].cast("d") for k in range(theirs)]
    except Exception:  # a data error, or a failed pipe or fork: the serial path decides
        pass
    finally:
        if read is not None:
            os.close(read)
        if child is not None:  # still running, or blocked on a full pipe
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    return [run(task) for task in tasks] if results is None else results
