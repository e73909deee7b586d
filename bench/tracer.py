"""Span tracer that wraps sympllt's public functions from outside the library.

``Tracer.install()`` replaces every public function of the library modules,
and numpy's ``linalg.eigvalsh``/``linalg.solve``, with a timing wrapper, in
every module namespace that bound the name (``from .dense import matmul``
binds a separate name in each importer).  ``Tracer.uninstall()`` puts the
original objects back.  Spans are kept in memory and written out by the
caller when the run ends.

A span's self time is its duration minus the time covered by its direct
child spans.  The kernel counts are computed from argument shapes (and the
input file size for ``read_matrix``), never measured, so they repeat
exactly for the same inputs.
"""

import importlib
import inspect
import itertools
import os
import sys
from time import perf_counter

import numpy as np

LIBRARY_MODULES = ("dense", "factor", "symplectic", "testmat", "checks",
                   "diagnostics", "matio", "cli")
NUMPY_FUNCTIONS = ("eigvalsh", "solve")

# Computed counts, each with its unit.
COUNTS = {
    "dense.matmul.flops": "flop",
    "dense.matmul.bytes": "B",
    "factor.cholesky_lower.pivots": "count",
    "testmat.normals": "count",
    "checks.factorizations": "count",
    "matio.read_matrix.bytes": "B",
}


def _pivots(args, exc, counts):
    # pivots eliminated: all of them, or up to the failing one
    if exc is None:
        counts["factor.cholesky_lower.pivots"] += np.shape(args[0])[0]
    elif hasattr(exc, "index"):
        counts["factor.cholesky_lower.pivots"] += exc.index


def _matmul(args, exc, counts):
    if exc is None:
        m, k = np.shape(args[0])
        n = np.shape(args[1])[1]
        counts["dense.matmul.flops"] += 2 * m * k * n
        # read both operands once, write the product once (float64)
        counts["dense.matmul.bytes"] += 8 * (m * k + k * n + m * n)


def _normals(args, exc, counts):
    if exc is None:
        counts["testmat.normals"] += int(args[0]) ** 2


def _read_bytes(args, exc, counts):
    if exc is None:
        counts["matio.read_matrix.bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "dense.matmul": _matmul,
    "factor.cholesky_lower": _pivots,
    "testmat.standard_normal_matrix": _normals,
    "matio.read_matrix": _read_bytes,
}
_FACTORIZATIONS = ("symplectic.algorithm_w1", "symplectic.algorithm_w2")


def library_functions():
    """(layer name, function) for every wrapped function, in a fixed order.

    SplitMix64's methods are left out on purpose: a sweep calls them
    hundreds of thousands of times, so a wrapper would cost more than the
    work; ``standard_normal_matrix`` times the generator instead.
    """
    out = []
    for mod in LIBRARY_MODULES:
        module = importlib.import_module(f"sympllt.{mod}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out.append((f"{mod}.{name}", obj))
    for name in NUMPY_FUNCTIONS:
        out.append((f"numpy.{name}", getattr(np.linalg, name)))
    return out


class Tracer:
    """Wrappers, spans and per-op accounting for one traced process."""

    def __init__(self):
        functions = library_functions()
        self.names = [name for name, _ in functions]
        self.spans = []
        self._ids = itertools.count()
        self.op = -1
        self.record_spans = True
        self._stack = []
        self._checks_depth = 0
        self.reset_op()
        by_id = {id(fn): fid for fid, (_, fn) in enumerate(functions)}
        self.wrappers = [self._wrap(fid, name, fn)
                         for fid, (name, fn) in enumerate(functions)]
        # every (namespace, attribute, original) that binds a wrapped function
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "sympllt" or n.startswith("sympllt.")]
        namespaces.append(np.linalg)
        self.bindings = []
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                fid = by_id.get(id(obj))
                if fid is not None and obj is functions[fid][1]:
                    self.bindings.append((ns, attr, obj, fid))

    def reset_op(self):
        """Start per-op accounting (calls, self time, counts)."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, fid, name, fn):
        hook = _HOOKS.get(name)
        is_checks = name.startswith("checks.")
        is_factorization = name in _FACTORIZATIONS
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = next(self._ids)
            frame = [index, 0.0]
            stack.append(frame)
            if is_checks:
                self._checks_depth += 1
            if is_factorization and self._checks_depth:
                self.counts["checks.factorizations"] += 1
            exc = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[fid] += duration - frame[1]
                self.calls[fid] += 1
                if stack:
                    stack[-1][1] += duration
                if is_checks:
                    self._checks_depth -= 1
                if self.record_spans:
                    spans.append((index, fid, start, end, parent, self.op))
                if hook is not None:
                    hook(args, exc, self.counts)

        return traced

    def install(self):
        for ns, attr, _, fid in self.bindings:
            setattr(ns, attr, self.wrappers[fid])

    def uninstall(self):
        for ns, attr, original, _ in self.bindings:
            setattr(ns, attr, original)

    def restored(self):
        """True when every wrapped attribute is the original object again."""
        return all(getattr(ns, attr) is original
                   for ns, attr, original, _ in self.bindings)

    def span_records(self, t0):
        """Recorded spans in start order as [id, name, start, end, parent,
        op]; times in seconds from ``t0``, ``parent`` is a span id or -1."""
        return [[index, self.names[fid], start - t0, end - t0, parent, op]
                for index, fid, start, end, parent, op in sorted(self.spans)]
