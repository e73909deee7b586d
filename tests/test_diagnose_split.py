"""diagnose's split row: from n = _SPLIT_MIN_N forked children compute part of
the row, in two rounds of _forked jobs, and every bit of the row, its error
included, is that of the row computed in one process.

As in ``test_sweep_workers.py``, the affinity mask is patched to one CPU to
keep a row in this process and to two to split it, and the thread probe is
taken as single-threaded, since this test process may run a BLAS thread
pool.  Which process ran which steps is read from a log that each call of
``_run_steps`` appends to, in whichever process it runs, and which process
factored, from a log of the factor kernels' calls.
"""

import math
import os
import threading

import numpy as np
import pytest

from sympllt import diagnostics, factor, workers
from sympllt.errors import InvalidEntryError
from sympllt.symplectic import BlockPartition
from sympllt.testmat import random_pdp
from support import forkable, no_child_left, rebind, row_fields, set_cpus

N = diagnostics._SPLIT_MIN_N
ALL_STEPS = diagnostics._ALL_STEPS
BLOCKS = {"l11", "l21", "schur", "_w2_l22", "gram", "l11_inv_t", "omega11"}
# a split row's rounds, each as (this process's job, the child's job)
ROUNDS = [(BLOCKS, {"omega_A", "kappa2_A11", "norm2_A11"}),
          ({"kappa2_A", "relerr_w2", "omega_L2"},
           {"norm2_invA11", "dist_sympl", "dist_sympl_rel", "relerr_w1", "omega_L1"})]
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


def assert_split(runs, parent, rounds=ROUNDS):
    # each round's first job here and its second in a child forked for that
    # round, in round order, and nothing left running
    children = [(pid, names) for pid, names in runs if pid != parent]
    assert [names for pid, names in runs if pid == parent] == [here for here, _ in rounds]
    assert [names for _, names in children] == [there for _, there in rounds]
    assert len({pid for pid, _ in children}) == len(rounds)
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


# each error row's NaN fields: a field is NaN only if its own getter raised
@pytest.mark.parametrize("make, error, nans", [
    # W2's fields fail; W1's, from the other process, reach the row only by the union
    (non_pd_schur, "during schur-complement reverse-cholesky", {"relerr_w2", "omega_L2"}),
    (singular_leading_block, "condition_number: zero eigenvalue",
     {"kappa2_A11", "norm2_invA11", "dist_sympl", "dist_sympl_rel", "relerr_w1", "relerr_w2",
      "omega_L1", "omega_L2"}),
    (overflowing, "a computed quantity overflowed to a non-finite value", {"omega_A"}),
], ids=["non-pd-schur", "singular-leading-block", "overflow"])
def test_split_error_rows_equal_one_process_rows_bitwise(monkeypatch, steps_run, make, error,
                                                         nans):
    a = make(N)
    expected = one_process_row(monkeypatch, a)
    steps_run()
    row = split_row(monkeypatch, a)
    assert_split(steps_run(), os.getpid())
    assert error in row.error
    assert {name for name in diagnostics.TABLE_QUANTITIES if math.isnan(getattr(row, name))} == nans
    assert math.isfinite(row.norm2_A) and math.isfinite(row.norm2_A11)
    assert row_fields(row) == row_fields(expected)


def test_a_non_finite_partition_raises_before_any_fork(monkeypatch, steps_run):
    # ||A||'s eigensolve tests the input before the fork; no step runs
    p = random_pdp(N, 10)
    a22 = p.a22.copy()
    a22[N // 2, N - 1] = np.inf
    p = BlockPartition(n=p.n, a11=p.a11, a12=p.a12, a22=a22)

    def no_fork():
        pytest.fail("diagnose forked for a non-finite input")

    set_cpus(monkeypatch, 2)
    forkable(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    assert workers._fork_cpus() > 1
    with pytest.raises(InvalidEntryError) as raised:
        diagnostics.diagnose(p, "file", 0.0)
    assert str(raised.value) == "condition number: input contains NaN or infinite entries"
    assert steps_run() == []


def test_the_caller_forms_no_inverse_of_a11_in_a_split_row(monkeypatch, steps_run):
    # inv(a11) and drift are cached only by the child's steps, so the caller's
    # share does not hold them while it forms omega11 (test_memory_gates.py)
    a = random_pdp(N, 11).assemble()
    p = BlockPartition.from_matrix(a)
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        diagnostics.diagnose(p, "file", 0.0)
    assert {"inv_a11", "drift"} <= vars(p).keys()
    steps_run()
    p = BlockPartition.from_matrix(a)
    split_row(monkeypatch, p)
    assert_split(steps_run(), os.getpid())
    assert not {"inv_a11", "drift"} & vars(p).keys()


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
    # in each round the parent ran its own share, then the child's
    assert steps_run() == [(parent, names) for jobs in ROUNDS for names in jobs]
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
    # the interrupt ends the row in its first round
    assert_split(steps_run(), parent, ROUNDS[:1])


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


@pytest.fixture
def factored(tmp_path, monkeypatch):
    """A function returning the (pid, kernel name) of each cholesky_lower and
    forward_substitute call since it was last called, in call order.  Each
    kernel is logged wherever a sympllt module bound it, so reverse_cholesky_upper's
    call of cholesky_lower is logged too."""
    log = tmp_path / "factor.log"

    def logging(kernel):
        def logged(*args, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()} {kernel.__name__}\n")
            return kernel(*args, **kwargs)
        return logged

    for kernel in (factor.cholesky_lower, factor.forward_substitute):
        rebind(monkeypatch, kernel, logging(kernel), needed=["sympllt.factor", "sympllt.symplectic"])

    def read():
        words = log.read_text(encoding="ascii").split() if log.exists() else []
        log.unlink(missing_ok=True)
        return [(int(pid), name) for pid, name in zip(words[::2], words[1::2])]

    return read


def test_a_split_row_forms_each_shared_block_once(monkeypatch, steps_run, factored):
    # this process forms l11, l21, l11^-T and W2's l22 once each, as the
    # whole row does in one process, and no child factors or substitutes
    parent = os.getpid()
    a = random_pdp(N, 12).assemble()
    factored()
    expected = one_process_row(monkeypatch, a)
    calls = sorted(factored())
    assert calls == [(parent, "cholesky_lower")] * 2 + [(parent, "forward_substitute")] * 2
    steps_run()
    p = BlockPartition.from_matrix(a)
    row = split_row(monkeypatch, p)
    assert_split(steps_run(), parent)
    assert row.ok and row_fields(row) == row_fields(expected)
    assert sorted(factored()) == calls
    # the blocks stay here; inv(a11) and drift were formed in the child alone
    assert BLOCKS <= vars(p).keys() and not {"inv_a11", "drift"} & vars(p).keys()
