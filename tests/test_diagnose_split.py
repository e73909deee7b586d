"""diagnose's split row: from n = _SPLIT_MIN_N a forked child computes part of
the row, and every bit of the row, its error included, is that of the row
computed in one process.

As in ``test_sweep_workers.py``, the affinity mask is patched to one CPU to
keep a row in this process and to two to split it, and the thread probe is
taken as single-threaded, since this test process may run a BLAS thread
pool.  Which process ran which steps is read from a log that each call of
``_run_steps`` appends to, in whichever process it runs.
"""

import os
import threading

import numpy as np
import pytest

from sympllt import diagnostics
from sympllt.testmat import random_pdp
from support import forkable, no_child_left, row_fields, set_cpus

N = diagnostics._SPLIT_MIN_N
ALL_STEPS = diagnostics._ALL_STEPS
CHILD_STEPS = diagnostics._CHILD_STEPS
pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")


@pytest.fixture
def steps_run(tmp_path, monkeypatch):
    """A function returning the (pid, steps) of each _run_steps call since it
    was last called, in call order."""
    log = tmp_path / "steps.log"
    real = diagnostics._run_steps

    def logged(p, names):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()} {','.join(sorted(names))}\n")
        return real(p, names)

    def read():
        lines = log.read_text(encoding="ascii").split() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), set(names.split(","))) for pid, names in zip(lines[::2], lines[1::2])]

    monkeypatch.setattr(diagnostics, "_run_steps", logged)
    return read


def one_process_row(monkeypatch, a):
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        return diagnostics.diagnose(a, "file", 0.0)


def split_row(monkeypatch, a):
    set_cpus(monkeypatch, 2)
    forkable(monkeypatch)
    return diagnostics.diagnose(a, "file", 0.0)


def assert_split(runs, parent):
    # the parent's share here, the child's in one other process, and nothing left running
    (_, names), = [(pid, names) for pid, names in runs if pid != parent]
    assert (parent, ALL_STEPS - CHILD_STEPS) in runs and names == CHILD_STEPS
    assert no_child_left()


def non_pd_schur(n):
    a = random_pdp(n, 5).assemble()
    a[n:, n:] -= 50.0 * np.eye(n)  # a11 stays SPD, the Schur complement does not
    return a


def singular_leading_block(n):
    a = random_pdp(n, 6).assemble()
    a[:n, :n] = 0.0
    a[0, 0] = 1.0
    return a


def overflowing(n):
    return random_pdp(n, 7).assemble() * 1e300


@pytest.mark.parametrize("seed", [1, 20231011])
@pytest.mark.parametrize("n", [N, N + 37, 2 * N])
def test_split_rows_equal_one_process_rows_bitwise(monkeypatch, steps_run, n, seed):
    a = random_pdp(n, seed).assemble()
    expected = one_process_row(monkeypatch, a)
    assert steps_run() == [(os.getpid(), ALL_STEPS)]
    threads, tasks = threading.active_count(), len(os.listdir("/proc/self/task"))
    row = split_row(monkeypatch, a)
    assert_split(steps_run(), os.getpid())
    assert row.ok and row_fields(row) == row_fields(expected)
    assert threading.active_count() == threads and len(os.listdir("/proc/self/task")) == tasks


@pytest.mark.parametrize("make, error", [
    (non_pd_schur, "during schur-complement reverse-cholesky"),
    (singular_leading_block, "condition_number: zero eigenvalue"),
    (overflowing, "a computed quantity overflowed to a non-finite value"),
], ids=["non-pd-schur", "singular-leading-block", "overflow"])
def test_split_error_rows_equal_one_process_rows_bitwise(monkeypatch, steps_run, make, error):
    a = make(N)
    expected = one_process_row(monkeypatch, a)
    steps_run()
    row = split_row(monkeypatch, a)
    assert_split(steps_run(), os.getpid())
    assert error in row.error
    assert row_fields(row) == row_fields(expected)


def test_a_child_that_dies_leaves_its_steps_to_the_parent(monkeypatch, steps_run):
    a = random_pdp(N, 8).assemble()
    expected = one_process_row(monkeypatch, a)
    parent, logged = os.getpid(), diagnostics._run_steps

    def dying(p, names):
        if os.getpid() != parent:
            os._exit(1)
        return logged(p, names)

    monkeypatch.setattr(diagnostics, "_run_steps", dying)
    steps_run()
    row = split_row(monkeypatch, a)
    # the parent ran its own share, then the child's
    assert steps_run() == [(parent, ALL_STEPS - CHILD_STEPS), (parent, CHILD_STEPS)]
    assert row_fields(row) == row_fields(expected)


def test_an_interrupted_parent_reaps_its_child(monkeypatch, steps_run):
    parent, logged = os.getpid(), diagnostics._run_steps

    def interrupted(p, names):
        result = logged(p, names)
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return result

    monkeypatch.setattr(diagnostics, "_run_steps", interrupted)
    with pytest.raises(KeyboardInterrupt):
        split_row(monkeypatch, random_pdp(N, 9).assemble())
    assert_split(steps_run(), parent)


def test_sweep_and_table_rows_are_never_split(monkeypatch, steps_run):
    set_cpus(monkeypatch, 2)
    forkable(monkeypatch)
    rows = diagnostics.run_sweep("random", N, N + 1, 1)  # two rows: here and in a child
    runs = steps_run()
    assert [r.n for r in rows] == [N, N + 1] and all(r.ok for r in rows)
    assert len(runs) == 2 and all(names == ALL_STEPS for _, names in runs)
    assert os.getpid() in {pid for pid, _ in runs} and len({pid for pid, _ in runs}) == 2
    diagnostics.run_sweep("random", N, N, 2)  # one row, in this process
    assert steps_run() == [(os.getpid(), ALL_STEPS)]
    for table_id in diagnostics.TABLES:
        rows = diagnostics.run_table(table_id)
        assert steps_run() == [(os.getpid(), ALL_STEPS)] * len(rows)
    # a row outside a sweep splits again
    diagnostics.diagnose(random_pdp(N, 3))
    assert_split(steps_run(), os.getpid())


@pytest.mark.parametrize("condition", ["one-cpu", "below-threshold"])
def test_conditions_that_keep_a_row_in_one_process(monkeypatch, steps_run, condition):
    set_cpus(monkeypatch, 1 if condition == "one-cpu" else 2)
    forkable(monkeypatch)
    assert diagnostics.diagnose(random_pdp(N - (condition == "below-threshold"), 4)).ok
    assert steps_run() == [(os.getpid(), ALL_STEPS)]


def test_another_thread_keeps_a_row_in_one_process(monkeypatch, steps_run):
    set_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert diagnostics.diagnose(random_pdp(N, 4)).ok
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert steps_run() == [(os.getpid(), ALL_STEPS)]
