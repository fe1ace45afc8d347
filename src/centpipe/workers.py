"""One map of a function over items in forked worker processes.

`count(items, work)` is the number of processes a map of `items` items runs
in: one per CPU the process may use (`os.sched_getaffinity`), at most one per
item. It is 1 where `os.fork` or OpenBLAS's thread setter is missing, inside
a running map (no nesting: a map called by an item runs inline), and when the
caller's estimate of the map's `work` is below MIN_WORK, where forking would
cost more than it saves.

`map(fn, items, processes)` yields fn(item) for every item, in item order.
Item i runs in process i mod `processes`: 0 is the calling process, which
computes its own share of the items (so every name it calls resolves there),
and the others are children forked for the call, which inherit the items and
whatever `fn` reads and send back each result through a pipe as soon as it is
ready. So the caller holds at most one result per process, and a child waits
in its write until the caller reads. A child's exception is raised in the
caller, and a child that ends without a result raises RuntimeError naming
`fn`; if anything raises, or the caller stops early, the children still
running are killed, and every child is reaped before the map ends. While a
map runs in more than one process, each of them runs OpenBLAS on one thread
(its second thread only spins while the other processes use the CPUs); the
caller's thread count is restored afterwards. A map's results do not depend
on its process count.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal

# The estimate below which a map runs inline, in float64 values that its work
# writes: the network counts its activation values (see net._processes), the
# forest the temporaries of its split passes (see forest.fit). Forking and
# reaping a worker costs about 10 ms on a 2-vCPU host, and 2^23 values are
# about 50 ms of desk forward passes, so half of that work saves more than
# the fork costs.
MIN_WORK = 2**23

_running = False  # a map is running in this process, or this is a worker


@functools.cache
def _blas_threads():
    """(get, set) of the OpenBLAS thread count numpy loaded, found by its
    path in /proc/self/maps; None when there is none."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({ln.split()[-1] for ln in f
                            if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def count(items: int, work: float) -> int:
    """Processes a map of `items` items whose work is estimated at `work`
    runs in."""
    if (_running or work < MIN_WORK or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or _blas_threads() is None):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items))


def _fork(fn, items) -> tuple:
    """Fork a child that pickles (True, fn(item)) for each of `items` in
    turn into a pipe, or (False, the exception) and stops; returns (pid,
    read end). The child leaves by os._exit, never returning into the
    caller's frames."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # _running is already set: the caller set it before forking
            os.close(read)
            with open(write, "wb") as pipe:
                for item in items:
                    try:
                        result = (True, fn(item))
                    except Exception as exc:  # noqa: BLE001 - the caller raises it
                        result = (False, exc)
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
                    if not result[0]:
                        break
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _receive(fn, pid, pipe):
    try:
        ok, value = pickle.load(pipe)
    except EOFError:
        raise RuntimeError(f"{fn.__name__} worker {pid} ended without a result") from None
    if not ok:
        raise value
    return value


def map(fn, items: list, processes: int):
    """fn(item) of each item, in item order, computed in `processes`
    processes (see the module docstring); a generator."""
    global _running
    if processes <= 1:
        for item in items:
            yield fn(item)
        return
    get, put = _blas_threads()
    threads = get()
    children = []
    try:
        put(1)  # before the forks, so the children start with one thread too
        _running = True
        for w in range(1, processes):
            children.append(_fork(fn, items[w::processes]))
        for i, item in enumerate(items):
            w = i % processes
            result = fn(item) if w == 0 else _receive(fn, *children[w - 1])
            if i + 1 < len(items):
                yield result
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)  # not yet reaped, so the pid is still the child's
        raise
    finally:
        _running = False
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
        put(threads)
    yield result  # the last one, after the reaping: a caller need not ask for more
