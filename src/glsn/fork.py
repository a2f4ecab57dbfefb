"""Run one function over the parts of a job in forked worker processes.

`workers` is the one rule for how many parts a job gets. `run_parts` calls
`fn` on each part: part 0 in this process, every other part in a child
forked with plain `os.fork`, which pickles its result back over a pipe and
always leaves through `os._exit`. The results come back as a list in part
order. A `DataError` raised by `fn` in a child is sent back and raised
here; any other failure of a child prints its traceback and sends nothing,
and the call raises `RuntimeError`. There is no serial fallback.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from typing import BinaryIO, Callable, Sequence, TypeVar

from .model import DataError

P = TypeVar("P")
R = TypeVar("R")


def worker_count() -> int:
    """Processes for one job: the CPUs this process may run on (a narrower
    affinity mask, as set by `taskset`, gives fewer), and 1 where there is
    no fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(batches: int) -> int:
    """Processes for a job of `batches` whole batches, each pass counting
    the work it can do in units of its own element budget (the gb/fb pass:
    states and edge slots, `indices._work`; the subset walk: stacked fit
    elements): one per CPU of the mask, but at most one per batch and at
    least one. So a job of fewer than two batches runs in the calling
    process, where a fork costs more than it saves."""
    return max(1, min(worker_count(), batches))


def _child(fd: int, fn: Callable[[P], R], part: P) -> None:
    """A forked worker: pickle (DataError or None, result) to fd, then leave
    through os._exit, so that nothing of the parent's stack runs twice."""
    code = 1
    try:
        try:
            sent = (None, fn(part))  # fd stays open until a traceback is out
        except DataError as exc:
            sent = (exc, None)
        with open(fd, "wb") as f:
            pickle.dump(sent, f, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:  # reported through the missing result and the exit code
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def run_parts(fn: Callable[[P], R], parts: Sequence[P]) -> list[R]:
    """[fn(part) for part in parts], with parts 1.. run in forked children.

    The scheduler places every process. Every child is reaped before this
    returns or raises, and killed first if the call failed.
    """
    children: list[tuple[int, BinaryIO]] = []
    done = False
    try:
        for i in range(1, len(parts)):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(w, fn, parts[i])
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(parts[0])]
        for i, (_, f) in enumerate(children, 1):
            try:
                error, result = pickle.load(f)  # bytes from this call's own children
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {i} of {len(parts)} sent no result") from None
            if error is not None:
                raise error
            results.append(result)
        done = True
    finally:
        for pid, f in children:
            f.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
