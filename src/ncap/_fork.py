"""Run independent tasks that each return floats on a second CPU.

``split`` forks one child that runs every second task while the parent runs
the others. The child sends its floats back through a pipe as raw
``array('d')`` bytes, so every float keeps its bits, and ends with
``os._exit``; the parent reads the pipe to its end and reaps the child in a
``finally``. The callers import this module only once their work is above
the break-even they measured, so a small input never loads it.
"""

from __future__ import annotations

import os
import signal
import sys
from array import array
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


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
    """In a forked child: write the count of floats per task, then the
    floats, and exit; 0 only when every byte was written. Never returns,
    and writes nothing to stdout or stderr."""
    code = 1
    try:
        os.close(read)
        counts, floats = array("q"), array("d")
        for task in tasks:
            values = run(task)
            counts.append(len(values))
            floats.extend(values)
        with open(write, "wb") as out:
            out.write(counts.tobytes())
            out.write(floats.tobytes())
        code = 0
    except BaseException:  # the parent runs this share itself on exit code 1
        pass
    finally:
        os._exit(code)


def _receive(pipe, tasks: int, keep: Callable) -> list | None:
    """``keep`` of a child's floats per task, read from its pipe one task at
    a time, so that no more than one task's bytes are held at once; None
    when the output is short or long."""
    header = pipe.read(8 * tasks)
    if len(header) != 8 * tasks:
        return None
    got = []
    for count in memoryview(header).cast("q"):
        data = pipe.read(8 * count)
        if len(data) != 8 * count:
            return None
        got.append(keep(memoryview(data).cast("d")))
    return None if pipe.read(1) else got


def split(
    tasks: Sequence[T],
    run: Callable[[T], Sequence[float]],
    keep: Callable[[Sequence[float]], R],
) -> list[R]:
    """``[keep(run(task)) for task in tasks]``, with a forked child running
    ``tasks[1::2]`` on a second CPU while this process runs ``tasks[0::2]``.
    ``keep`` turns a task's floats into its result as soon as they are at
    hand, so no more than one task's floats are held besides the results.

    Any failure on either side, a data error included, gives the serial
    path: every task in order in this process, so an error keeps its class,
    message and order.
    """
    if len(tasks) < 2 or not _second_cpu():
        return [keep(run(task)) for task in tasks]
    parent, child = os.getpid(), None  # child: its pid, until it is reaped
    results: list | None = None
    read = None
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
        ours = [keep(run(task)) for task in tasks[0::2]]
        with open(read, "rb") as pipe:
            read = None
            theirs = _receive(pipe, len(tasks[1::2]), keep)
        status = os.waitpid(child, 0)[1]
        child = None
        if theirs is not None and os.waitstatus_to_exitcode(status) == 0:
            results = [None] * len(tasks)
            results[0::2], results[1::2] = ours, theirs
    except Exception:  # a data error, or a failed pipe or fork: the serial path decides
        pass
    finally:
        if read is not None:
            os.close(read)
        if child is not None:  # still running, or blocked on a full pipe
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    return [keep(run(task)) for task in tasks] if results is None else results
