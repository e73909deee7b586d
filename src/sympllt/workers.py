"""The one place where work crosses a fork: ``_forked(jobs)`` returns
``[job() for job in jobs]`` with the jobs spread over forked children."""

import os
import pickle

_forking = False  # true while _forked runs jobs, so that no job forks again


def _fork_cpus():
    # the CPUs of the affinity mask; 1 in a _forked job or beside another thread
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus if cpus > 1 and not _forking and _single_threaded() else 1


def _single_threaded():
    # counts native threads, unseen by threading; if /proc cannot tell, assume one more
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _forked(jobs):
    """[job() for job in jobs], every bit the same, with job i run in
    process i % k for k = min(_fork_cpus(), len(jobs)): process 0 is this
    one, the others are forked children.  Each process runs its jobs up to
    the first raise (_run_jobs); a child pickles that in full, writes it to
    its pipe and always ends in os._exit.  Every pipe is closed and every
    child reaped, also when this process raises or is interrupted; a child
    that could not be started (os.pipe or os.fork raised OSError) or that
    ends without a result leaves its jobs to this process.  The first
    raising job in order raises here."""
    k, children = min(_fork_cpus(), max(len(jobs), 1)), []
    try:
        for r in range(1, k):
            try:
                read, write = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                try:
                    os.close(read)
                    for _, fh in children:
                        fh.close()
                    with os.fdopen(write, "wb") as fh:
                        fh.write(pickle.dumps(_run_jobs(jobs[r::k])))
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, os.fdopen(read, "rb")))
            os.close(write)
        shares = [_run_jobs(jobs[::k])]
        results = [fh.read() for _, fh in children]
    finally:
        for _, fh in children:
            fh.close()
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    shares += [pickle.loads(data) if status == 0 else _run_jobs(jobs[r::k])
               for r, data, status in zip(range(1, k), results, statuses)]
    shares += [_run_jobs(jobs[r::k]) for r in range(len(shares), k)]
    # each process stopped at its first raise, so the earliest is the first in order
    raised = [(r + k * len(done), exc) for r, (done, exc) in enumerate(shares) if exc]
    if raised:
        raise min(raised)[1]
    return [shares[i % k][0][i // k] for i in range(len(jobs))]


def _run_jobs(jobs):
    # the jobs' results up to the first raise, and its exception; no job forks
    global _forking
    done, outer, _forking = [], _forking, True
    try:
        for job in jobs:
            done.append(job())
    except Exception as exc:
        return done, exc
    finally:
        _forking = outer
    return done, None
