"""workers._forked, the one place where work crosses a fork: it returns
``[job() for job in jobs]``, with job i run in process i % k, process 0
being this one.

As in ``test_sweep_workers.py``, the affinity mask is patched to choose k
and the thread probe is taken as single-threaded; ``os.pipe`` or ``os.fork``
is patched to raise where a child cannot be started.  After each test no
child is left, running or unreaped, and no file descriptor is left open.
"""

import errno
import os
from functools import partial

import numpy as np
import pytest

from sympllt import cli, diagnostics, workers, write_matrix
from sympllt.testmat import random_pdp
from support import forkable, nothing_left, row_fields, set_cpus  # noqa: F401

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
                                reason="no fork or no /proc/self/fd on this platform")


def forked(monkeypatch, cpus, jobs):
    set_cpus(monkeypatch, cpus)
    forkable(monkeypatch)
    return workers._forked(jobs)


def where(i):
    return i, os.getpid()


def raising(i):
    raise ValueError(f"job {i}")


@pytest.mark.parametrize("cpus, count, k", [(1, 7, 1), (2, 7, 2), (3, 7, 3), (4, 2, 2)],
                         ids=["k1", "k2", "k3", "fewer-jobs-than-cpus"])
def test_results_come_back_in_job_order(monkeypatch, cpus, count, k):
    got = forked(monkeypatch, cpus, [partial(where, i) for i in range(count)])
    assert [i for i, _ in got] == list(range(count))
    pids = [pid for _, pid in got]
    # job i ran in process i % k: this one for i % k == 0, one child for each other
    assert [pids[i % k] for i in range(count)] == pids
    assert pids[0] == os.getpid() and len(set(pids)) == k


def test_no_jobs_give_no_results(monkeypatch):
    assert forked(monkeypatch, 2, []) == []


@pytest.mark.parametrize("k", [2, 3])
def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(monkeypatch, k):
    big = np.arange(150_000, dtype=np.float64) / 7.0  # 1.2 MB
    jobs = [partial(where, 0)] + [partial(np.copy, big)] * (2 * k - 1)
    got = forked(monkeypatch, k, jobs)
    assert got[0] == (0, os.getpid()) and len(got) == 2 * k
    for a in got[1:]:
        assert a.nbytes > 2 ** 20 and np.array_equal(a.view(np.uint64), big.view(np.uint64))


@pytest.mark.parametrize("first, later", [(3, 4), (2, 5)],
                         ids=["lower-in-a-child", "lower-here"])
def test_the_first_raising_job_in_order_raises(monkeypatch, first, later):
    jobs = [raising if i in (first, later) else where for i in range(8)]
    with pytest.raises(ValueError, match=f"^job {first}$"):
        forked(monkeypatch, 2, [partial(job, i) for i, job in enumerate(jobs)])


def test_a_killed_childs_jobs_run_here(monkeypatch):
    parent = os.getpid()

    def dies_in_a_child(i):
        if os.getpid() != parent:
            os._exit(1)
        return where(i)

    jobs = [partial(dies_in_a_child if i % 3 == 1 else where, i) for i in range(7)]
    got = forked(monkeypatch, 3, jobs)
    assert [i for i, _ in got] == list(range(7))
    pids = [pid for _, pid in got]
    # the jobs of the child that died (i % 3 == 1) ran here; the other child's did not
    assert [pids[i] == parent for i in range(7)] == [i % 3 != 2 for i in range(7)]


def test_a_nested_forked_forks_nothing(monkeypatch):
    def nested(_):
        return workers._forked([partial(where, j) for j in range(3)])

    outer = forked(monkeypatch, 2, [partial(nested, i) for i in range(2)])
    # each nested call ran all its jobs in the process that ran it
    assert [{pid for _, pid in inner} for inner in outer] == \
        [{os.getpid()}, {outer[1][0][1]}]
    assert outer[1][0][1] != os.getpid()
    assert not workers._forking and workers._fork_cpus() == 2


@pytest.mark.parametrize("k", [2, 3])
def test_an_interrupted_parent_reaps_its_children(monkeypatch, k):
    big = np.zeros(150_000)  # more than a pipe holds: the children block on writing

    def interrupted(i):
        if i == 0:
            raise KeyboardInterrupt
        return big.copy()

    with pytest.raises(KeyboardInterrupt):
        forked(monkeypatch, k, [partial(interrupted, i) for i in range(2 * k)])
    assert not workers._forking


def failing_after(monkeypatch, name, started):
    """Make os.<name> raise EAGAIN from its call ``started`` + 1 on."""
    real, calls = getattr(os, name), []

    def limited():
        calls.append(name)
        if len(calls) > started:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, name, limited)


@pytest.mark.parametrize("name", ["pipe", "fork"])
@pytest.mark.parametrize("k, started", [(2, 0), (3, 0), (3, 1)])
def test_the_jobs_of_a_child_that_cannot_start_run_here(monkeypatch, name, k, started):
    failing_after(monkeypatch, name, started)
    got = forked(monkeypatch, k, [partial(where, i) for i in range(7)])
    assert [i for i, _ in got] == list(range(7))
    # the children that started ran their jobs; every other job ran here
    assert [pid == os.getpid() for _, pid in got] == \
        [i % k == 0 or i % k > started for i in range(7)]


def test_a_split_row_and_a_sweep_come_out_bitwise_when_no_child_starts(monkeypatch, tmp_path, capsys):
    path = tmp_path / "a.mat"
    write_matrix(path, random_pdp(200, 1).assemble())  # order 400: the row splits
    diagnose = ["diagnose", "--in", str(path)]
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        assert cli.main(diagnose) == 0
        printed, rows = capsys.readouterr(), diagnostics.run_sweep("random", 1, 9, 3)
    failing_after(monkeypatch, "fork", 0)
    set_cpus(monkeypatch, 2)
    forkable(monkeypatch)
    assert cli.main(diagnose) == 0 and capsys.readouterr() == printed
    assert [row_fields(r) for r in diagnostics.run_sweep("random", 1, 9, 3)] == \
        [row_fields(r) for r in rows]
