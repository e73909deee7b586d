"""Cross-module invariants checked over the whole fixture set."""

import math

import numpy as np

from sympllt import (
    algorithm_w1,
    algorithm_w2,
    cholesky_lower,
    condition_number,
    distance_to_symplecticity,
    gamma,
    loss_of_symplecticity,
    matmul,
    spectral_norm,
)
from sympllt.dense import EPS
from sympllt.diagnostics import standard_fixtures
from sympllt.testmat import pascal_symplectic


def test_cholesky_backward_bound_on_every_fixture():
    for _, name, p in standard_fixtures():
        a = p.assemble()
        n = a.shape[0]
        if 2 * n * gamma(n + 1) >= 1.0:
            continue
        low = cholesky_lower(a)
        resid = spectral_norm(a - matmul(low, low.T))
        assert resid <= 2 * n * gamma(n + 1) * spectral_norm(a), name


def test_factor_diagonals_strictly_positive():
    for _, name, p in standard_fixtures():
        for f in (algorithm_w1(p), algorithm_w2(p)):
            assert np.all(np.diag(f.p.l11) > 0), name
            assert np.all(np.diag(f.l22) > 0), name


def test_distance_on_exactly_symplectic_fixtures():
    # the measured distance is pure rounding noise; its scale carries the
    # square root of the leading-block conditioning from the inversion step.
    # Beyond n=12 the leading block is numerically singular (eps * kappa > 1)
    # and no distance model applies.
    for n in (2, 6, 8, 10, 12):
        p = pascal_symplectic(n)
        assert loss_of_symplecticity(p.assemble()) == 0.0
        f = algorithm_w1(p)
        dist = distance_to_symplecticity(f, p)
        ninv = spectral_norm(matmul(f.l22, np.ascontiguousarray(f.l22.T)))
        k11 = condition_number(p.a11)
        bound = 1000 * n * EPS * (spectral_norm(p.assemble()) + math.sqrt(k11) * ninv)
        assert dist <= bound, (n, dist, bound)


def test_factorizations_reproducible_bitwise():
    for _, name, p in standard_fixtures():
        f1a, f1b = algorithm_w1(p), algorithm_w1(p)
        assert np.array_equal(f1a.assemble(), f1b.assemble()), name
        f2a, f2b = algorithm_w2(p), algorithm_w2(p)
        assert np.array_equal(f2a.assemble(), f2b.assemble()), name


def test_fixture_matrices_are_spd():
    for _, name, p in standard_fixtures():
        cholesky_lower(p.assemble())  # raises if not SPD
        assert np.array_equal(p.assemble(), p.assemble().T), name
