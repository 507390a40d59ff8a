"""Per-document work on forked processes, for the CPU-bound filter stages.

`map_chunks(fn, items, jobs)` splits `items` into contiguous chunks, one
per process, and returns `[fn(chunk) for chunk in chunks]` in input order.
The calling process runs the first chunk itself; forked children run the
rest. Models and inputs reach the children through fork, so `fn` may be a
closure; only its results are pickled back.

`multiprocessing` is imported only when more than one process runs, so a
command at one job neither forks nor loads it.
"""

from __future__ import annotations

import os
from contextlib import suppress
from typing import Callable, Sequence, TypeVar

from .errors import MtforgeError, ValidationError

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(MtforgeError):
    """A worker process ended without sending a result."""


def chunk_bounds(n_items: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) spans covering range(n_items), one per
    process: min(jobs, n_items, usable CPUs) of them, at least one, with
    sizes differing by at most one."""
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    # sched_getaffinity, the CPUs this process may run on, is Linux-only
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = max(1, min(jobs, n_items, cpus))
    return [(n_items * i // procs, n_items * (i + 1) // procs) for i in range(procs)]


def _run_chunk(fn, chunk, conn, inherited) -> None:
    """Child body: send (True, result), or (False, exc) for an exception
    that the CLI reports in one line, which the parent raises as if fn had
    run there. Any other exception prints its traceback here, as it would
    serially, and the parent sees a child without a result.

    The receive ends `inherited` through fork are closed first, so once the
    parent dies no pipe of this child has a reader: the send then fails,
    and the child ends quietly instead of blocking forever."""
    for receive in inherited:
        receive.close()
    try:
        message = (True, fn(chunk))
    except (MtforgeError, OSError, RuntimeError, MemoryError) as exc:
        message = (False, exc)
    with suppress(BrokenPipeError):  # the parent is gone
        conn.send(message)
    conn.close()


def map_chunks(fn: Callable[[Sequence[T]], R], items: Sequence[T], jobs: int) -> list[R]:
    """[fn(chunk) for chunk in contiguous chunks of items], one chunk per
    process of `chunk_bounds(len(items), jobs)`.

    The first chunk that raises, in input order, has its exception raised
    here, as a serial loop would. A child that ends without a result raises
    WorkerError. Whatever happens, every child has ended when this returns;
    a child never runs the caller's cleanup, since it leaves by `os._exit`.
    """
    bounds = chunk_bounds(len(items), jobs)
    if len(bounds) == 1:
        return [fn(items)]

    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []
    finished = False
    try:
        for start, stop in bounds[1:]:
            receive, send = context.Pipe(duplex=False)
            inherited = [receive, *(earlier for _, earlier in children)]
            child = context.Process(target=_run_chunk, args=(fn, items[start:stop], send, inherited), daemon=True)
            child.start()
            # the parent's copy of the send end closed, so a dead child reads as EOF
            send.close()
            children.append((child, receive))
        results = [fn(items[: bounds[0][1]])]
        for number, (child, receive) in enumerate(children, 2):
            try:
                ok, value = receive.recv()
            except EOFError:
                child.join()
                raise WorkerError(f"worker process {number} of {len(bounds)} ended without a result "
                                  f"(exit code {child.exitcode})") from None
            if not ok:
                raise value
            results.append(value)
        finished = True
        return results
    finally:
        for child, receive in children:
            receive.close()
            if not finished:
                child.kill()
            child.join()
