"""run_sweep's worker processes: the rows, the raised error and the state
left behind equal those of the in-process loop.

The loop is forced with a one-CPU affinity mask.  This test process may
run a BLAS thread pool, and run_sweep then keeps the loop in-process, so
the tests that need the workers take the thread probe as single-threaded;
``test_workers_run_when_no_blas_thread_runs`` runs sweeps in fresh
processes without that patch.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from sympllt import diagnostics
from sympllt.errors import PivotNotPositiveError
from support import row_fields

SRC = str(Path(__file__).resolve().parent.parent / "src")
# the worker path reads the affinity mask, which only some platforms have
pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                                reason="no affinity mask on this platform")


@pytest.fixture
def pids(tmp_path, monkeypatch):
    """A function that returns the set of process ids which computed a row
    since it was last called."""
    log = tmp_path / "pids.log"
    real = diagnostics.diagnose

    def logged(*args, **kwargs):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    def read():
        seen = set(map(int, log.read_text(encoding="ascii").split()))
        log.unlink()
        return seen

    monkeypatch.setattr(diagnostics, "diagnose", logged)
    return read


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _forkable(monkeypatch):
    monkeypatch.setattr(diagnostics, "_single_threaded", lambda: True)


def _in_process(monkeypatch, *sweep):
    with monkeypatch.context() as m:
        _cpus(m, 1)
        return diagnostics.run_sweep(*sweep)


def _nothing_left(threads):
    return multiprocessing.active_children() == [] and threading.active_count() == threads


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("sweep", [("random", 1, 40, 1), ("random", 1, 40, 20231011),
                                   ("pascal", 1, 16)], ids=["random-1", "random-20231011",
                                                            "pascal"])
def test_rows_equal_the_in_process_loop_bitwise(monkeypatch, pids, sweep, workers):
    expected = _in_process(monkeypatch, *sweep)
    assert pids() == {os.getpid()}
    _cpus(monkeypatch, workers)
    _forkable(monkeypatch)
    threads = threading.active_count()
    rows = diagnostics.run_sweep(*sweep)
    workers_seen = pids()
    assert workers_seen and os.getpid() not in workers_seen
    assert [r.n for r in rows] == list(range(sweep[1], sweep[2] + 1))
    assert [row_fields(r) for r in rows] == [row_fields(r) for r in expected]
    assert _nothing_left(threads)


def test_a_failing_row_raises_the_lowest_n_error(monkeypatch, pids):
    real = diagnostics.random_pdp

    def failing(n, seed):
        # raised outside diagnose, which would record it in the row
        if n in (5, 30):
            raise PivotNotPositiveError(n, -1.0, stage=f"generation of n={n}")
        return real(n, seed)

    monkeypatch.setattr(diagnostics, "random_pdp", failing)
    with pytest.raises(PivotNotPositiveError) as in_process:
        _in_process(monkeypatch, "random", 1, 40, 2)
    assert pids() == {os.getpid()}
    _cpus(monkeypatch, 2)
    _forkable(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(PivotNotPositiveError) as pooled:
        diagnostics.run_sweep("random", 1, 40, 2)
    assert os.getpid() not in pids()
    assert str(pooled.value) == str(in_process.value) == \
        "pivot 5 is not positive (-1.0) during generation of n=5"
    assert (pooled.value.index, pooled.value.value, pooled.value.stage) == \
        (5, -1.0, "generation of n=5")
    assert _nothing_left(threads)


def _one_cpu(m):
    _cpus(m, 1)


@pytest.mark.parametrize("condition, sweep", [
    (_one_cpu, ("random", 1, 6, 3)),
    (_forkable, ("random", 7, 7, 3)),
], ids=["one-cpu", "one-row"])
def test_conditions_that_keep_the_loop_in_process(monkeypatch, pids, condition, sweep):
    _cpus(monkeypatch, 2)
    condition(monkeypatch)
    rows = diagnostics.run_sweep(*sweep)
    assert pids() == {os.getpid()}
    assert [r.n for r in rows] == list(range(sweep[1], sweep[2] + 1))


def test_another_thread_keeps_the_loop_in_process(monkeypatch, pids):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        diagnostics.run_sweep("random", 1, 6, 3)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert pids() == {os.getpid()}


def test_importing_the_cli_leaves_multiprocessing_out():
    code = ("import sys, sympllt.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_workers_run_when_no_blas_thread_runs(tmp_path, blas_threads):
    # a fresh process, no probe patched: a BLAS pinned to one thread runs
    # no thread pool, and the rows go to the workers; a BLAS thread pool
    # keeps them in the process
    log = tmp_path / "pids.log"
    code = """if True:
        import os, pickle, sys
        from sympllt import diagnostics
        real = diagnostics.diagnose
        def logged(*args, **kwargs):
            with open(sys.argv[1], "a") as fh:
                fh.write(f"{os.getpid()}\\n")
            return real(*args, **kwargs)
        diagnostics.diagnose = logged
        threads = len(os.listdir("/proc/self/task"))
        pooled = diagnostics.run_sweep("random", 1, 12, 5)
        os.sched_getaffinity = lambda pid: {0}
        looped = diagnostics.run_sweep("random", 1, 12, 5)
        sys.stdout.buffer.write(pickle.dumps((os.getpid(), threads, pooled, looped)))
    """
    pins = {name: blas_threads for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code, str(log)], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=SRC, **pins), check=True).stdout
    parent, threads, pooled, looped = pickle.loads(out)
    in_parent = log.read_text(encoding="ascii").split().count(str(parent))
    # the looped sweep's 12 rows are always computed in the parent
    assert in_parent == (12 if threads == 1 else 24)
    assert threads == 1 or blas_threads != "1"
    assert [row_fields(r) for r in pooled] == [row_fields(r) for r in looped]
