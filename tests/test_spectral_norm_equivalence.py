"""dense.spectral_norm against a frozen copy of its Gram-matrix route.

Non-symmetric inputs used to go through sqrt(max eig(W^T W)) with W^T W
formed by the fixed-order product; they now go through LAPACK's singular
value decomposition.  That is a deliberate rounding-level change to the
norms of non-symmetric matrices, which in the reported quantities are the
structure-loss norms omega_A, omega_L1 and omega_L2.  Every other
diagnostics field and every check verdict must stay as it was.
"""

import dataclasses
import math

import numpy as np
import pytest

import sympllt
from sympllt import dense, omega, run_checks, run_sweep, run_table
from sympllt.dense import is_bitwise_symmetric
from sympllt.diagnostics import standard_fixtures
from sympllt.symplectic import algorithm_w1, algorithm_w2
from sympllt.testmat import random_pdp

from frozen import frozen_spectral_norm
from support import float_bits, rebind

REL_TOL = 1e-13
OMEGA_FIELDS = ("omega_A", "omega_L1", "omega_L2")
NORM_USERS = ("sympllt", "sympllt.dense", "sympllt.symplectic", "sympllt.checks",
              "sympllt.diagnostics")


def assert_close(got, want):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert abs(got - want) <= REL_TOL * abs(want), (got, want)


def omegas(p):
    """omega(A), omega(L_1), omega(L_2) of a partition."""
    return [omega(p.assemble()), omega(algorithm_w1(p).assemble()),
            omega(algorithm_w2(p).assemble())]


FIXTURES = [(name, p) for _, name, p in standard_fixtures()]


@pytest.mark.parametrize("name,p", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_fixture_omega_norms_close_to_gram_route(name, p):
    for w in omegas(p):
        assert_close(dense.spectral_norm(w), frozen_spectral_norm(w))


@pytest.mark.parametrize("n", list(range(1, 41)) + [100, 200])
def test_random_omega_norms_close_to_gram_route(n):
    ws = omegas(random_pdp(n, n))
    # the computed omega(A) is rounding noise, not bitwise (skew-)symmetric,
    # so this exercises the non-symmetric route
    assert not is_bitwise_symmetric(ws[0])
    for w in ws:
        assert_close(dense.spectral_norm(w), frozen_spectral_norm(w))


@pytest.mark.parametrize("a,norm", [
    ([[0.0, 3.0], [0.0, 4.0]], 5.0),
    ([[1.0, 2.0, 2.0]], 3.0),
    ([[0.0, -2.0], [2.0, 0.0]], 2.0),
])
def test_non_symmetric_norms_known_values(a, norm):
    assert dense.spectral_norm(np.array(a)) == pytest.approx(norm, rel=4 * dense.EPS)


def test_run_checks_verdicts_unchanged(monkeypatch):
    current = run_checks()
    rebind(monkeypatch, dense.spectral_norm, frozen_spectral_norm, NORM_USERS)
    assert sympllt.spectral_norm is frozen_spectral_norm
    frozen = run_checks()
    verdicts = lambda report: [(r.context, r.bound_id, r.verdict) for r in report.results]
    assert verdicts(current) == verdicts(frozen)
    assert (current.holds, current.violated, current.skipped) == (375, 0, 81)
    assert (frozen.holds, frozen.violated, frozen.skipped) == (375, 0, 81)
    for got, want in zip(current.results, frozen.results):
        for field in ("lhs", "rhs", "floor"):
            assert_close(getattr(got, field), getattr(want, field))


def diagnostics_rows():
    return run_table(1) + run_table(2) + run_table(3) + run_sweep("random", 1, 40)


def test_only_omega_fields_change(monkeypatch):
    current = diagnostics_rows()
    rebind(monkeypatch, dense.spectral_norm, frozen_spectral_norm, NORM_USERS)
    frozen = diagnostics_rows()
    assert len(current) == len(frozen) == 52
    for got, want in zip(current, frozen):
        assert got.ok and want.ok
        for field in dataclasses.fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name in OMEGA_FIELDS:
                assert_close(a, b)
            elif isinstance(a, float):
                assert float_bits([a]) == float_bits([b]), field.name
            else:
                assert a == b, field.name
    # Table 2's ordering survives the change
    for row in run_table(2):
        assert row.omega_L1 <= row.omega_L2
