"""The helpers that several test modules use, each defined here once."""

import dataclasses
import hashlib
import os
import sys

import numpy as np
import pytest

from sympllt import workers


def uint64_view(a):
    assert a.dtype == np.float64, a.dtype
    return a.view(np.uint64)


def float_bits(values):
    return uint64_view(np.asarray(values)).tolist()


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(uint64_view(got), uint64_view(want))


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(uint64_view(a)).tobytes())
    return h.hexdigest()


_REFERENCE_DIGESTS = {}


def assert_matches_reference(got, reference, *inputs):
    """assert_same_bits(got, reference(*inputs)), running ``reference``, which calls no
    library kernel, once per input and keeping only its digest; a mismatch reruns it."""
    key = (reference.__module__, reference.__qualname__, digest(inputs))
    if _REFERENCE_DIGESTS.get(key) == digest([got]):
        return
    want = reference(*inputs)
    assert_same_bits(got, want)
    kept = _REFERENCE_DIGESTS.setdefault(key, digest([want]))
    assert kept == digest([want]), f"kept digest of {key} differs from the reference's"


def normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def with_negative_zeros(a):
    out = np.array(a)
    out[out == 0.0] = -0.0
    return out


def within_factor(got, expected, factor=10.0):
    return expected / factor <= got <= expected * factor


def row_fields(row):
    fields = dataclasses.astuple(row)
    return ([v for v in fields if not isinstance(v, float)],
            float_bits([v for v in fields if isinstance(v, float)]))


def result_bits(results):
    """row_fields of each check result; a single result counts as a list of one."""
    return [row_fields(r) for r in ([results] if dataclasses.is_dataclass(results) else results)]


def rebind(monkeypatch, original, replacement, needed=()):
    """Bind ``replacement`` wherever a sympllt module bound ``original``, checking that
    each module named in ``needed`` was among them; returns the modules patched."""
    patched = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "sympllt":
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched.append(name)
    assert set(needed) <= set(patched), patched
    return patched


def set_cpus(monkeypatch, count):
    """Make the affinity mask read ``count`` CPUs; one CPU keeps a sweep's rows
    and a diagnose row in this process, as ``taskset -c 0`` does."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def no_child_left():
    """True if this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def forkable(monkeypatch):
    """Take this process as single-threaded, whatever BLAS threads it runs."""
    monkeypatch.setattr(workers, "_single_threaded", lambda: True)


@pytest.fixture(autouse=True)
def nothing_left():
    """Used by a test module: after each of its tests, as before it, this process
    has no child and no more open file descriptors."""
    assert no_child_left()
    fds = len(os.listdir("/proc/self/fd"))
    yield
    assert no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds
