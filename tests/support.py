"""Helpers shared by the test modules: bitwise views of results, and
rebinding a library function in every module that imported it."""

import dataclasses
import sys

import numpy as np


def float_bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def row_fields(row):
    fields = dataclasses.astuple(row)
    return ([v for v in fields if not isinstance(v, float)],
            float_bits([v for v in fields if isinstance(v, float)]))


def check_fields(report):
    return ([(r.bound_id, r.verdict, r.reason, r.context) for r in report.results],
            float_bits([(r.lhs, r.rhs, r.floor) for r in report.results]))


def rebind(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a sympllt module bound ``original``.

    Returns the names of the modules patched, so a caller can assert that
    every module it relies on was.
    """
    patched = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "sympllt":
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)
                    patched.append(name)
    return patched
