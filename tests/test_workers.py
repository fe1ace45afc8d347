"""The one fork-and-pipe map: order, process assignment, nesting, errors,
reaping and the OpenBLAS thread count."""

import contextlib
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from centpipe import workers

from conftest import assert_no_child_left, use_cpus


def _blas_threads() -> int:
    return workers._blas_threads()[0]()


def _where(item):
    return item, os.getpid(), workers.count(2, workers.MIN_WORK), _blas_threads()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_in_item_order_from_process_i_mod_w(monkeypatch, cpus):
    """Item i runs in process i mod W, 0 being the caller; inside the map
    every process runs OpenBLAS on one thread and a nested map runs inline;
    afterwards the caller's thread count is back and no child is left."""
    use_cpus(monkeypatch, cpus)
    processes = workers.count(7, workers.MIN_WORK)
    assert processes == cpus
    threads = _blas_threads()
    results = list(workers.map(_where, list(range(7)), processes))
    assert [r[0] for r in results] == list(range(7))
    pids = [r[1] for r in results]
    assert [pid == os.getpid() for pid in pids] == [i % cpus == 0 for i in range(7)]
    assert all(pids[i] == pids[i % cpus] for i in range(7))
    assert len(set(pids)) == cpus
    assert {r[2] for r in results} == {1}
    assert {r[3] for r in results} == ({1} if cpus > 1 else {threads})
    assert _blas_threads() == threads
    assert_no_child_left()


def test_count_is_one_below_the_work_bound_or_without_fork(monkeypatch):
    use_cpus(monkeypatch, 4)
    assert workers.count(3, workers.MIN_WORK) == 3  # at most one process per item
    assert workers.count(9, workers.MIN_WORK - 1) == 1
    assert workers.count(0, workers.MIN_WORK) == 1
    monkeypatch.delattr(os, "fork")
    assert workers.count(9, workers.MIN_WORK) == 1


def test_count_is_one_without_the_openblas_thread_setter(monkeypatch):
    use_cpus(monkeypatch, 4)
    monkeypatch.setattr(workers, "_blas_threads", lambda: None)
    assert workers.count(9, workers.MIN_WORK) == 1


def _fail_in(where: str, caller: int):
    def fn(item):
        in_worker = os.getpid() != caller
        if where == "worker exit" and in_worker and item == 1:
            os._exit(3)
        if (where == "worker" and in_worker and item == 4) or (where == "caller" and item == 3):
            raise ValueError(f"{where} failed on {item}")
        return np.full(100_000, item)  # more than a pipe holds: the child waits in its write
    return fn


@pytest.mark.parametrize("where, error", [
    ("worker", "^worker failed on 4$"), ("caller", "^caller failed on 3$"),
    ("worker exit", r"^fn worker \d+ ended without a result$")])
def test_errors_reach_the_caller_and_no_child_is_left(monkeypatch, where, error):
    """A worker's exception is raised in the caller, and so is the caller's
    own; a worker that ends without a result is named. Every child is reaped
    and the caller's OpenBLAS thread count is back."""
    use_cpus(monkeypatch, 3)
    threads = _blas_threads()
    with pytest.raises((ValueError, RuntimeError), match=error):
        list(workers.map(_fail_in(where, os.getpid()), list(range(9)), 3))
    assert_no_child_left()
    assert _blas_threads() == threads
    assert workers.count(2, workers.MIN_WORK) == 2  # the map is over


def test_a_caller_that_stops_early_leaves_no_child(monkeypatch):
    use_cpus(monkeypatch, 2)
    threads = _blas_threads()
    with contextlib.closing(workers.map(_fail_in("none", os.getpid()), list(range(8)), 2)) as it:
        assert next(it)[0] == 0 and next(it)[0] == 1
    assert_no_child_left()
    assert _blas_threads() == threads
    assert workers.count(2, workers.MIN_WORK) == 2


_BUILT = []  # a weak reference to every _Result built or unpickled in this process


class _Result:
    """A map result that registers itself when built or unpickled, with the
    items of the earlier results its process still held when it was made."""

    def __init__(self, item, held):
        self.item, self.held = item, held
        _BUILT.append(weakref.ref(self))

    def __reduce__(self):
        return _Result, (self.item, self.held)


def _note_held(item):
    return _Result(item, [ref().item for ref in _BUILT if ref() is not None])


def test_no_process_holds_a_result_it_has_handed_over(monkeypatch):
    """Neither the caller nor a child keeps a result it has yielded or sent
    while it runs a later item: each process holds at most the result it is
    making."""
    use_cpus(monkeypatch, 2)
    seen = []
    for result in workers.map(_note_held, list(range(6)), workers.count(6, workers.MIN_WORK)):
        seen.append((result.item, result.held))
        del result  # the loop variable would hold it while the map runs the next item
    assert seen == [(item, []) for item in range(6)]
    assert_no_child_left()


def test_the_openblas_lookup_does_not_depend_on_import_order():
    """workers finds numpy's OpenBLAS (or its absence) alike whether or not
    the caller imported numpy first: the lookup runs once per process."""
    src = os.path.dirname(os.path.dirname(workers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    found = [subprocess.run(
        [sys.executable, "-c", f"{first}from centpipe import workers; "
         "print(workers._blas_threads() is None)"],
        env=env, check=True, capture_output=True, text=True).stdout
        for first in ("", "import numpy; ")]
    assert found == [f"{workers._blas_threads() is None}\n"] * 2
