"""L L^T and omega(L) formed block by block: the gates.

``BlockFactor.residual`` and ``BlockFactor.omega`` build a - L L^T and
L^T J L - J from the blocks of L = [l11 0; l21 l22], and take the blocks
w1 and w2 share (l11 l11^T, l21 l11^T and the (1,1) block of omega(L))
from the cache of the partition the factor holds.  The frozen
full-product forms are the definitions they replace, and the frozen
continued sums are the forms the (2,2) block of L L^T and the (1,1)
block of omega(L) had before they became single products over a
concatenated inner dimension; every result must match them bit for bit,
compared as uint64 views so -0.0 vs +0.0 counts.  The same tests run
with matmul's plain loop forced in ``test_plain_loop_path.py``.
"""

import dataclasses

import numpy as np
import pytest

from sympllt import dense
from sympllt.dense import condition_number, matmul, norm_and_condition, spectral_norm
from sympllt.diagnostics import diagnose, run_checks, standard_fixtures
from sympllt.errors import DimensionError, SingularError
from sympllt.symplectic import BlockFactor, BlockPartition
from sympllt.testmat import hyperbolic_spd, random_pdp

from frozen import (frozen_condition_number, frozen_continued_product, frozen_full_omega,
                    frozen_full_residual, frozen_norm, frozen_omega11, frozen_residual22)
from support import (assert_matches_reference, assert_same_bits, float_bits,
                     normal, rebind, result_bits, row_fields, with_negative_zeros)


def assert_block_forms(f):
    p, n = f.p, f.p.n
    assert_same_bits(f.residual(), frozen_full_residual(f))
    assert_same_bits(f.omega(), frozen_full_omega(f))
    assert_matches_reference(f.residual()[n:, n:], frozen_residual22, p.a22, p.l21, f.l22)
    assert_matches_reference(p.omega11, frozen_omega11, p.l11, p.l21)


# --- one product over a concatenated inner dimension ------------------------
# omega11 and the (2,2) block of residual() used to continue one product's
# sums with a second product's terms through matmul's ``acc``.  Each is now
# one product over the concatenated inner dimension.  These tests, named
# for the ``acc`` forms they replace, check that identity against the
# frozen continued sums on the inputs the ``acc`` tests used.

def assert_continues(first, second):
    """matmul([a c], [b; d]) is bitwise a b's sums continued with c d's terms."""
    (a, b), (c, d) = first, second
    got = matmul(np.hstack([a, c]), np.vstack([b, d]))
    assert_matches_reference(got, frozen_continued_product, a, b, c, d)
    return got


@pytest.mark.parametrize("m,k,n", [(3, 4, 5), (90, 63, 70), (90, 64, 70), (90, 65, 70),
                                   (300, 70, 260), (1, 100, 1)])
def test_matmul_continues_from_acc(m, k, n):
    a, b = normal((m, k), m), normal((k, n), n)
    a[:, ::5] = 0.0
    start = normal((m, 3), k), normal((3, n), k + 1)
    assert_continues(start, (a, b))
    assert_continues((np.zeros((m, 3)), start[1]), (a, b))
    assert_continues((a, b), start)


@pytest.mark.parametrize("order", [80, 300])
def test_matmul_acc_with_negative_zeros(order):
    a = normal((order, order), 1) * (normal((order, order), 2) > 0)
    b = normal((order, order), 3) * (normal((order, order), 4) > 0)
    x = with_negative_zeros(normal((order, order), 5) * (normal((order, order), 6) > 0))
    assert_continues((x, b), (a, b))
    assert_continues((a, b), (x, b))
    # a sum starts at +0.0, so -0.0 operands and zero products give +0.0
    zeros = with_negative_zeros(np.zeros((order, order)))
    got = assert_continues((zeros, b), (zeros, -b))
    assert not np.signbit(got).any()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_matmul_acc_non_finite(bad):
    a = normal((80, 80), 6)
    a[:, 4] = 0.0
    x = normal((80, 80), 7)
    x[3, 3] = bad
    assert_continues((x, a.T), (a, a.T))
    assert_continues((a, a.T), (x, a.T))


@pytest.mark.parametrize("order", [255, 256, 300])
def test_matmul_acc_gram_continues_any_start(order):
    low = np.tril(normal((order, order), order))
    got = assert_continues((low, low.T), (low, low.T))
    assert_same_bits(got, got.T)  # bitwise symmetric, as the residual's (2,2) block
    skew = normal((order, order), 8)
    assert_continues((skew, low.T), (low, low.T))  # not symmetric


def test_matmul_acc_concatenates_inner_dimension():
    a, b = normal((70, 66), 9), normal((66, 75), 10)
    c, d = normal((70, 80), 11), normal((80, 75), 12)
    assert_continues((a, b), (c, d))


def test_matmul_acc_shape_is_checked():
    # no start argument any more: a third operand is an error, not a start
    with pytest.raises(TypeError):
        matmul(np.eye(3), np.eye(3), np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        matmul(np.hstack([np.eye(3), np.eye(3)]), np.eye(3))


# --- residual and omega(L) against the full products ------------------------

SIZES = [*range(1, 41), 63, 64, 65, 100, 200]


@pytest.mark.parametrize("n", SIZES)
def test_random_factors(n):
    p = random_pdp(n, n)
    for f in (p.w1, p.w2):
        assert_block_forms(f)


FIXTURES = [(name, p) for _, name, p in standard_fixtures()]


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
    monkeypatch.setattr(BlockFactor, "residual", frozen_full_residual)
    monkeypatch.setattr(BlockFactor, "omega", frozen_full_omega)


@pytest.mark.parametrize("n", [5, 40, 100])
def test_diagnose_rows_identical_with_frozen_forms(monkeypatch, n):
    current = row_fields(diagnose(random_pdp(n, 3 + n), "random", n))
    use_frozen_forms(monkeypatch)
    assert row_fields(diagnose(random_pdp(n, 3 + n), "random", n)) == current


@pytest.mark.parametrize("fault", [False, True])
def test_run_checks_identical_with_frozen_forms(monkeypatch, fault):
    current = result_bits(run_checks(inject_w2_fault=fault).results)
    use_frozen_forms(monkeypatch)
    assert result_bits(run_checks(inject_w2_fault=fault).results) == current


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
    # and no full 2n x 2n product forms it again: the products over an inner
    # dimension of 2n are A^T (J A), omega11 and each factor's (2,2) block of
    # L L^T, and each is formed once
    a = p.assemble()
    xs = [np.hstack([l21, f.l22]) for f in (p.w1, p.w2)]
    wanted = [(a.T, np.vstack([a[n:], -a[:n]])),
              (np.hstack([p.l11.T, l21.T]), np.vstack([l21, -p.l11])),
              *((x, x.T) for x in xs)]
    full = [c for c in calls if c[0].shape[1] == 2 * n]
    assert len(full) == len(wanted)
    for left, right in wanted:
        assert sum(np.array_equal(c[0], left) and np.array_equal(c[1], right)
                   for c in full) == 1


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
    want = float_bits([frozen_norm(a), frozen_condition_number(a)])
    assert float_bits([norm, kappa()]) == want
    assert float_bits([spectral_norm(a), condition_number(a)]) == want


@pytest.mark.parametrize("a", [np.diag([1.0, 0.0]), np.diag([0.0, -1.0]),
                               np.array([[1.0, 2.0], [2.0, 4.0]]),
                               np.array([[1.0, 1.0], [0.0, 0.0]])])
def test_norm_and_condition_singular(a):
    norm, kappa = norm_and_condition(a)
    assert float_bits([norm]) == float_bits([spectral_norm(a)]) == float_bits([frozen_norm(a)])
    with pytest.raises(SingularError) as frozen:
        frozen_condition_number(a)
    for path in (kappa, lambda: condition_number(a)):
        with pytest.raises(SingularError) as got:
            path()
        assert str(got.value) == str(frozen.value)


@pytest.mark.parametrize("a", [a for a in SPECTRA if not np.array_equal(a, a.T)])
def test_kappa_of_a_non_symmetric_matrix_takes_two_svds(monkeypatch, a):
    # its own and its inverse's, as with the frozen copy: the norm is not redone
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0])
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for kappa in (lambda: frozen_condition_number(a), lambda: condition_number(a),
                  lambda: norm_and_condition(a)[1]()):
        calls.clear()
        kappa()
        assert len(calls) == 2 and np.array_equal(calls[0], a)


def test_norm_and_condition_shape_is_checked():
    with pytest.raises(DimensionError):
        norm_and_condition(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        norm_and_condition(np.zeros((0, 0)))


@pytest.mark.parametrize("a", [np.ones((2, 3)), np.zeros((0, 0))], ids=["2x3", "empty"])
def test_both_entry_points_reject_a_shape_in_the_same_words(a):
    for entry in (condition_number, norm_and_condition):
        with pytest.raises(DimensionError) as exc:
            entry(a)
        assert str(exc.value) == "condition number: matrix must be square and non-empty"


def test_cached_products_are_read_only():
    p = random_pdp(4, 2)
    for block in (*p.gram, p.omega11):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
