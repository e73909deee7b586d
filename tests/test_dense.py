import math
from fractions import Fraction

import numpy as np
import pytest

from sympllt import (
    DimensionError,
    InvalidEntryError,
    condition_number,
    frobenius_norm,
    matmul,
    reverse_permute,
    spectral_norm,
)
from sympllt.testmat import SplitMix64, minij, pascal_symplectic, hyperbolic_spd

# pinned by the power-method oracle below (10000 iterations, mpmath dps=40)
MINIJ_SPECTRAL_NORM = 8.2908593693815896


def power_method_oracle(a_int, iterations=10000, dps=40):
    """Independent spectral-norm oracle: power iteration on a^T a in
    extended precision."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = dps
    a = mp.matrix(a_int)
    gram = a.T * a
    v = mp.matrix([1] * a.cols)
    lam = mp.mpf(0)
    for _ in range(iterations):
        w = gram * v
        lam = mp.norm(w) / mp.norm(v)
        v = w / mp.norm(w)
    return mp.sqrt(lam)


def test_matmul_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(np.eye(3), b), b)


def test_matmul_minij_cholesky_product_exact():
    l0 = np.tril(np.ones((4, 4)))
    assert np.array_equal(matmul(l0, l0.T), minij())


def test_matmul_against_exact_integer_oracle():
    a = [[2, -1, 3], [0, 4, 1], [-2, 5, 2]]
    b = [[1, 2, 0], [3, -1, 4], [2, 2, -3]]
    expected = [
        [sum(Fraction(a[i][k]) * b[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]
    got = matmul(np.array(a, float), np.array(b, float))
    assert np.array_equal(got, np.array(expected, float))


def test_matmul_associative_on_integers():
    rng = SplitMix64(11)
    a = np.array([[float(rng.next_u64() % 7) - 3 for _ in range(4)] for _ in range(4)])
    b = np.array([[float(rng.next_u64() % 7) - 3 for _ in range(4)] for _ in range(4)])
    c = np.array([[float(rng.next_u64() % 7) - 3 for _ in range(4)] for _ in range(4)])
    assert np.array_equal(matmul(matmul(a, b), c), matmul(a, matmul(b, c)))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionError):
        matmul(np.eye(3), np.eye(4))


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 4.0])) == 4.0


def test_spectral_norm_minij_vs_power_oracle():
    got = spectral_norm(minij())
    assert got == pytest.approx(MINIJ_SPECTRAL_NORM, rel=1e-12)
    oracle = power_method_oracle([[1, 1, 1, 1], [1, 2, 2, 2], [1, 2, 3, 3], [1, 2, 3, 4]])
    assert got == pytest.approx(float(oracle), rel=1e-12)


def test_spectral_norm_hyperbolic_theta3():
    assert spectral_norm(hyperbolic_spd(3.0)) == pytest.approx(5.0379e02, rel=1e-3)


def test_spectral_norm_rejects_nan():
    with pytest.raises(InvalidEntryError):
        spectral_norm(np.array([[1.0, math.nan], [0.0, 1.0]]))


def test_spectral_norm_rectangular():
    a = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    assert spectral_norm(a) == pytest.approx(4.0, rel=1e-14)


def test_condition_number_identity():
    assert condition_number(np.eye(5)) == 1.0


def test_condition_number_scalar_matrix():
    for c in (0.25, 3.0, 1e8):
        assert condition_number(c * np.eye(4)) == pytest.approx(1.0, rel=1e-12)


def test_condition_number_hyperbolic_theta3():
    assert condition_number(hyperbolic_spd(3.0)) == pytest.approx(2.5380e05, rel=1e-3)


def test_condition_number_pascal6():
    a = pascal_symplectic(6).assemble()
    assert condition_number(a) == pytest.approx(4.4315e05, rel=1e-3)


def test_condition_number_general_matrix():
    # lower triangular, not symmetric: general route through the inverse
    low = np.array([[2.0, 0.0], [3.0, 0.5]])
    sv = np.linalg.svd(low, compute_uv=False)
    assert condition_number(low) == pytest.approx(sv[0] / sv[-1], rel=1e-10)


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.ones((2, 2))) == 2.0


def test_frobenius_norm_matches_direct_summation():
    rng = SplitMix64(99)
    a = np.array(rng.normals(25)).reshape(5, 5)
    direct = math.sqrt(sum(v * v for v in a.ravel()))
    assert frobenius_norm(a) == pytest.approx(direct, rel=1e-15)


def test_reverse_permute():
    assert np.array_equal(reverse_permute(np.diag([1.0, 2.0, 3.0])), np.diag([3.0, 2.0, 1.0]))
    assert np.array_equal(
        reverse_permute(np.array([[1.0, 2.0], [3.0, 4.0]])),
        np.array([[4.0, 3.0], [2.0, 1.0]]),
    )


def test_reverse_permute_involution_bitwise():
    a = hyperbolic_spd(4.0)
    assert np.array_equal(reverse_permute(reverse_permute(a)), a)


def test_reverse_permute_requires_square():
    with pytest.raises(DimensionError):
        reverse_permute(np.ones((2, 3)))


def test_norm_inequalities_on_test_matrices():
    mats = [minij(), hyperbolic_spd(3.0), hyperbolic_spd(7.0), pascal_symplectic(8).assemble()]
    for a in mats:
        s = spectral_norm(a)
        f = frobenius_norm(a)
        root = math.sqrt(min(a.shape))
        assert s <= f * (1 + 1e-12)
        assert f <= root * s * (1 + 1e-12)


def test_spectral_norm_invariant_under_reversal():
    for a in (minij(), hyperbolic_spd(6.0)):
        assert spectral_norm(reverse_permute(a)) == pytest.approx(
            spectral_norm(a), rel=1e-12
        )


def test_condition_number_singular_inputs():
    from sympllt import SingularError

    with pytest.raises(SingularError):
        condition_number(np.zeros((2, 2)))
    with pytest.raises(SingularError):
        condition_number(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_spectral_norm_empty_rejected():
    with pytest.raises(DimensionError):
        spectral_norm(np.zeros((0, 0)))


def test_condition_number_empty_rejected():
    with pytest.raises(DimensionError):
        condition_number(np.zeros((0, 0)))
