"""One forked worker on a second CPU, with an in-process fallback.

Three commands hand one job each to a forked child while they do other
work (see _forked for when a child is forked):

- sweep: the second chain of points (cli.cmd_sweep);
- solve on a lattice of more than solver.FORK_GRID points a side: the float
  strings of value.json's trailing block, one text per row
  (solver.save_value_field);
- analyze of such a lattice: writing policy.csv (cli.cmd_analyze).

No command forks more than one child. The child's items are the ones job()
makes in process, and the items a failed child did not deliver are made in
process, so no file or message depends on whether a child ran; `taskset -c
0 gepower ...` forks nothing.
"""

from __future__ import annotations

import contextlib
import itertools
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

    job() returns an iterable of items that each survive a JSON round trip
    unchanged. Yields a function that returns an iterator over job()'s
    items. The child makes all of them, so that it never waits on the pipe,
    then sends them through the pipe as one JSON line per item, and the
    iterator yields each item as its line arrives, so the caller never holds
    them all. When no child ran, or the child's lines end early, hold a line
    that is not JSON or come from a child that did not exit 0, the iterator
    goes on from the first item not yet yielded with the items of job() run
    in this process, so every error surfaces as it would have in process.
    The child leaves by os._exit here, never unwinding into the caller, and
    is reaped when its items run out or when the block is left, killed first
    if it still runs.
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
                    items = list(job())
                    with open(write_fd, "w", encoding="utf-8") as fh:
                        for item in items:
                            json.dump(item, fh)
                            fh.write("\n")
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            reader = open(fd, "rb")

    def result():
        nonlocal pid
        sent = 0
        if pid is not None:
            whole = False
            for line in reader:
                # a line cut short by the child's end could still parse
                if not line.endswith(b"\n"):
                    break
                try:
                    item = json.loads(line)
                except ValueError:
                    break
                yield item
                sent += 1
            else:
                whole = True
            reader.read()       # the rest of the child's lines, so it can exit
            _, status = os.waitpid(pid, 0)
            pid = None
            if whole and status == 0:
                return
        yield from itertools.islice(job(), sent, None)

    try:
        yield result
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if reader is not None:
            reader.close()
