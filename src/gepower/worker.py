"""One forked worker on a second CPU, with an in-process fallback.

sweep hands its second chain of points to a forked child while it solves
the first (cli.cmd_sweep; see _forked for when a child is forked). The
child's result is the one the job makes in process, and a failed child's
job is run in process, so no file or message depends on whether a child
ran; `taskset -c 0 gepower ...` forks nothing. solve and analyze write
their files in one process: a child's copy-on-write faults on the parent's
heap cost them more than the formatting it took over.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading


def _second_cpu():
    """Whether this process may run on two CPUs or more: its affinity mask,
    else the machine's CPU count, says so. The Monte Carlo draw splits a
    block in two (simulate._draw_block) and _forked forks a child only then,
    so under `taskset -c 0` neither happens."""
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:      # no affinity mask on this platform
        return (os.cpu_count() or 1) >= 2


@contextlib.contextmanager
def _forked(job):
    """Run job() in a forked child when one may: os.fork exists, the
    process may run on a second CPU (_second_cpu), and no other Python
    thread is alive (a fork copies only the calling thread).

    job() returns a value that survives a JSON round trip unchanged. Yields
    a function that returns job()'s value. The child makes it and sends it
    through the pipe as one JSON line. When no child ran, or the child's
    line is cut short, is not JSON or comes from a child that did not exit
    0, the function returns job() run in this process, so every error
    surfaces as it would have in process. The child leaves by os._exit
    here, never unwinding into the caller, and is reaped when the function
    returns or when the block is left, killed first if it still runs.
    """
    pid = reader = None
    if hasattr(os, "fork") and _second_cpu() and threading.active_count() == 1:
        fds = ()
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
        else:
            fd, write_fd = fds
            if pid == 0:
                code = 1
                try:
                    os.close(fd)
                    value = job()
                    with open(write_fd, "w", encoding="utf-8") as fh:
                        json.dump(value, fh)
                        fh.write("\n")
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            reader = open(fd, "rb")

    def result():
        nonlocal pid
        if pid is not None:
            line = reader.readline()
            reader.read()       # the rest of the child's output, so it can exit
            _, status = os.waitpid(pid, 0)
            pid = None
            # a line cut short by the child's end could still parse
            if status == 0 and line.endswith(b"\n"):
                try:
                    return json.loads(line)
                except ValueError:
                    pass
        return job()

    try:
        yield result
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if reader is not None:
            reader.close()
