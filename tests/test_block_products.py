"""L L^T and omega(L) formed block by block: the gates.

``BlockFactor.residual`` and ``BlockFactor.omega`` build a - L L^T and
L^T J L - J from the blocks of L = [l11 0; l21 l22], and take the blocks
w1 and w2 share (l11 l11^T, l21 l11^T, l21 l21^T and the (1,1) block of
omega(L)) from the cache of the partition the factor holds.  The frozen full-product forms below
are the definitions they replace; every result must match them bit for
bit, compared as uint64 views so -0.0 vs +0.0 counts.
"""

import dataclasses

import numpy as np
import pytest

from sympllt import dense
from sympllt.dense import condition_number, matmul, norm_and_condition, spectral_norm
from sympllt.diagnostics import diagnose, run_checks, standard_fixtures
from sympllt.errors import DimensionError, SingularError
from sympllt.symplectic import BlockFactor, BlockPartition, omega
from sympllt.testmat import hyperbolic_spd, random_pdp

from support import check_fields, float_bits, rebind, row_fields


def frozen_residual(f):
    """a - L L^T from the full 2n x 2n product."""
    lmat = f.assemble()
    return f.p.assemble() - matmul(lmat, lmat.T)


def frozen_omega(f):
    """omega(L) from the full 2n x 2n product."""
    return omega(f.assemble())


def plain_matmul(a, b, acc=None):
    """Every term, ascending k, from +0.0 or from a copy of ``acc``."""
    out = np.zeros((a.shape[0], b.shape[1])) if acc is None else np.array(acc, dtype=float)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def assert_block_forms(f):
    assert_same_bits(f.residual(), frozen_residual(f))
    assert_same_bits(f.omega(), frozen_omega(f))


def with_negative_zeros(a):
    out = np.array(a)
    out[out == 0.0] = -0.0
    return out


# --- matmul continued from a starting array ---------------------------------

def normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def assert_continues(a, b, acc):
    before = np.array(acc)
    assert_same_bits(matmul(a, b, acc), plain_matmul(a, b, acc))
    assert_same_bits(acc, before)  # the start is copied, not written


@pytest.mark.parametrize("m,k,n", [(3, 4, 5), (90, 63, 70), (90, 64, 70), (90, 65, 70),
                                   (300, 70, 260), (1, 100, 1)])
def test_matmul_continues_from_acc(m, k, n):
    a, b = normal((m, k), m), normal((k, n), n)
    a[:, ::5] = 0.0
    assert_continues(a, b, normal((m, n), k))
    assert_continues(a, b, np.zeros((m, n)))


@pytest.mark.parametrize("order", [80, 300])
def test_matmul_acc_with_negative_zeros(order):
    a = normal((order, order), 1) * (normal((order, order), 2) > 0)
    b = normal((order, order), 3) * (normal((order, order), 4) > 0)
    acc = normal((order, order), 5)
    acc[::3, ::2] = -0.0  # -0.0 + +0.0 is +0.0: no term may be skipped
    assert_continues(a, b, acc)
    assert_continues(a, b, with_negative_zeros(np.zeros((order, order))))
    # adding only zero products still turns some -0.0 starts into +0.0
    zeros = np.zeros((order, order))
    assert_continues(zeros, b, acc)
    assert not np.array_equal(bits(matmul(zeros, b, acc)), bits(acc))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matmul_acc_non_finite(bad):
    a = normal((80, 80), 6)
    a[:, 4] = 0.0
    acc = normal((80, 80), 7)
    acc[3, 3] = bad
    assert_continues(a, a.T, acc)


@pytest.mark.parametrize("order", [255, 256, 300])
def test_matmul_acc_gram_continues_any_start(order):
    low = np.tril(normal((order, order), order))
    g = matmul(low, low.T)
    assert_continues(low, low.T, g)  # bitwise symmetric
    skew = normal((order, order), 8)
    assert_continues(low, low.T, skew)  # not symmetric
    got = matmul(low, low.T, g)
    assert_same_bits(got, got.T)


def test_matmul_acc_concatenates_inner_dimension():
    a, b = normal((70, 66), 9), normal((66, 75), 10)
    c, d = normal((70, 80), 11), normal((80, 75), 12)
    whole = matmul(np.hstack([a, c]), np.vstack([b, d]))
    assert_same_bits(matmul(c, d, matmul(a, b)), whole)


def test_matmul_acc_shape_is_checked():
    with pytest.raises(DimensionError):
        matmul(np.eye(3), np.eye(3), np.zeros((3, 2)))


# --- residual and omega(L) against the full products ------------------------

SIZES = [*range(1, 41), 63, 64, 65, 100, 200]


@pytest.mark.parametrize("n", SIZES)
def test_random_factors(n):
    p = random_pdp(n, n)
    for f in (p.w1, p.w2):
        assert_block_forms(f)


FIXTURES = standard_fixtures()


@pytest.mark.parametrize("name,p", FIXTURES, ids=[name for name, _ in FIXTURES])
def test_fixture_factors(name, p):
    for f in (p.w1, p.w2):
        assert_block_forms(f)
    f = dataclasses.replace(p.w2, l22=p.w2.l22 * (1.0 + 1e-3))
    assert_block_forms(f)


@pytest.mark.parametrize("n", [4, 64, 70])
def test_factors_with_negative_zeros(n):
    # -0.0 in a11's first column and in a12 reaches l11 and l21 through
    # the leading-block Cholesky and the forward substitution
    h = normal((2 * n, 2 * n), 7 * n)
    a = h + h.T + 8 * n * np.eye(2 * n)  # diagonally dominant, so SPD
    a[2:n:3, 0] = a[0, 2:n:3] = 0.0
    a[:n:2, n + 1::3] = a[n + 1::3, :n:2] = 0.0
    p = BlockPartition.from_matrix(a)
    p = BlockPartition(n, with_negative_zeros(p.a11), with_negative_zeros(p.a12), p.a22)
    assert np.signbit(p.l11[2, 0]) and np.signbit(p.l21).any()
    for f in (p.w1, p.w2):
        assert_block_forms(dataclasses.replace(f, l22=with_negative_zeros(f.l22)))


def test_mix_is_the_coupling_block_of_omega_l2():
    for _, p in FIXTURES:
        n = p.n
        mix = matmul(np.ascontiguousarray(p.l11.T), p.w2.l22) - np.eye(n)
        assert_same_bits(p.w2.omega()[:n, n:], mix)


# --- everything built on them, with the frozen forms patched in -------------

def use_frozen_forms(monkeypatch):
    monkeypatch.setattr(BlockFactor, "residual", frozen_residual)
    monkeypatch.setattr(BlockFactor, "omega", frozen_omega)


@pytest.mark.parametrize("n", [5, 40, 100])
def test_diagnose_rows_identical_with_frozen_forms(monkeypatch, n):
    current = row_fields(diagnose(random_pdp(n, 3 + n), "random", n))
    use_frozen_forms(monkeypatch)
    assert row_fields(diagnose(random_pdp(n, 3 + n), "random", n)) == current


@pytest.mark.parametrize("fault", [False, True])
def test_run_checks_identical_with_frozen_forms(monkeypatch, fault):
    current = check_fields(run_checks(inject_w2_fault=fault))
    use_frozen_forms(monkeypatch)
    assert check_fields(run_checks(inject_w2_fault=fault)) == current


# --- the work each diagnose does --------------------------------------------

def logged_matmul(monkeypatch):
    """Log the arguments of every matmul call made by a sympllt module."""
    calls = []
    original = dense.matmul

    def wrapper(*args):
        calls.append([np.array(a) for a in args])
        return original(*args)

    rebind(monkeypatch, original, wrapper)
    return calls


@pytest.mark.parametrize("n", [5, 100])
def test_l21_gram_formed_once_per_diagnose(monkeypatch, n):
    calls = logged_matmul(monkeypatch)
    p = random_pdp(n, 11)
    assert diagnose(p).ok
    l21 = p.l21
    grams = [c for c in calls
             if len(c) == 2 and np.array_equal(c[0], l21) and np.array_equal(c[1], l21.T)]
    assert len(grams) == 1
    # and no full 2n x 2n product forms it again: the only one left is A^T (J A)
    full = [c for c in calls if c[0].shape[1] == 2 * n]
    assert len(full) == 1 and np.array_equal(full[0][0], p.assemble().T)


def test_one_eigensolve_per_matrix_in_diagnose(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    p = random_pdp(6, 4)
    assert diagnose(p).ok
    assert sum(np.array_equal(c, p.assemble()) for c in calls) == 1
    assert sum(np.array_equal(c, p.a11) for c in calls) == 1


# --- one eigensolve for the norm and the condition number -------------------

SPECTRA = [
    np.eye(3),
    hyperbolic_spd(6.0),
    random_pdp(7, 3).assemble(),
    np.diag([2.0, -3.0, 0.5]),  # indefinite: the solve-based fallback
    np.array([[1.0, 2.0], [3.0, 4.0]]),  # not symmetric
    np.array([[2.0, 1.0], [1.0 + 2.0 ** -52, 2.0]]),  # one ulp from symmetric
]


@pytest.mark.parametrize("a", SPECTRA, ids=range(len(SPECTRA)))
def test_norm_and_condition_match_the_separate_calls(a):
    norm, kappa = norm_and_condition(a)
    assert float_bits([norm, kappa()]) == float_bits([spectral_norm(a), condition_number(a)])


@pytest.mark.parametrize("a", [np.diag([1.0, 0.0]), np.diag([0.0, -1.0]),
                               np.array([[1.0, 2.0], [2.0, 4.0]]),
                               np.array([[1.0, 1.0], [0.0, 0.0]])])
def test_norm_and_condition_singular(a):
    norm, kappa = norm_and_condition(a)
    assert float_bits([norm]) == float_bits([spectral_norm(a)])
    with pytest.raises(SingularError) as separate:
        condition_number(a)
    with pytest.raises(SingularError) as shared:
        kappa()
    assert str(shared.value) == str(separate.value)


def test_norm_and_condition_shape_is_checked():
    with pytest.raises(DimensionError):
        norm_and_condition(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        norm_and_condition(np.zeros((0, 0)))


def test_cached_products_are_read_only():
    p = random_pdp(4, 2)
    for block in (*p.gram, p.omega11):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
