import math
from fractions import Fraction

import numpy as np
import pytest

from sympllt import (
    DimensionError,
    condition_number,
    PivotNotPositiveError,
    SingularError,
    cholesky_lower,
    forward_substitute,
    lower_triangular_inverse,
    matmul,
    reverse_cholesky_upper,
    reverse_permute,
    spd_inverse,
    spd_solve,
    spectral_norm,
    upper_substitute,
)
from sympllt.dense import EPS
from sympllt.symplectic import gamma
from sympllt.testmat import SplitMix64, minij, pascal_symplectic, random_pdp, hyperbolic_spd

SQ2 = math.sqrt(2.0)


def rational_cholesky_oracle(a_int):
    """Exact LDL^T in rationals; the Cholesky factor is L * sqrt(D)."""
    n = len(a_int)
    low = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        diag[j] = Fraction(a_int[j][j]) - sum(low[j][k] ** 2 * diag[k] for k in range(j))
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            s = sum(low[i][k] * low[j][k] * diag[k] for k in range(j))
            low[i][j] = (Fraction(a_int[i][j]) - s) / diag[j]
    return low, diag


def test_cholesky_2x2_leading_block():
    got = cholesky_lower(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert np.array_equal(got, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_cholesky_identity():
    assert np.array_equal(cholesky_lower(np.eye(4)), np.eye(4))


def test_cholesky_3x3_against_rational_oracle():
    a = [[4, 2, 2], [2, 5, 3], [2, 3, 6]]
    low, diag = rational_cholesky_oracle(a)
    # here D = (4, 4, 4), so the factor is exactly integer
    assert all(d == 4 for d in diag)
    expected = np.array(
        [[float(low[i][j]) * 2.0 for j in range(3)] for i in range(3)]
    )
    assert np.array_equal(cholesky_lower(np.array(a, float)), expected)


def test_cholesky_minij_exact():
    got = cholesky_lower(minij())
    assert np.array_equal(got, np.tril(np.ones((4, 4))))


def test_cholesky_backward_bound_over_fixtures():
    mats = [minij(), hyperbolic_spd(3.0), hyperbolic_spd(7.0), pascal_symplectic(10).assemble(),
            random_pdp(15, 4).assemble()]
    for a in mats:
        n = a.shape[0]
        if 2 * n * gamma(n + 1) >= 1.0:
            continue  # bound regime not defined
        low = cholesky_lower(a)
        resid = spectral_norm(a - matmul(low, low.T))
        assert resid <= 2 * n * gamma(n + 1) * spectral_norm(a)


def test_cholesky_reports_pivot_index():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(PivotNotPositiveError) as err:
        cholesky_lower(a)
    assert err.value.index == 2


def test_cholesky_rejects_asymmetry():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionError):
        cholesky_lower(a)


def _overflowing_norm_asymmetric():
    # ||a||_F overflows to inf; a21 is not a12^T by a relative 1e-1
    a = np.diag([1e200] * 4)
    a[2, 3], a[3, 2] = 5e199, -5e199
    return a


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_asymmetry_is_rejected_when_the_norm_overflows():
    from sympllt.factor import require_symmetric
    from sympllt.symplectic import BlockPartition

    with pytest.raises(DimensionError, match="asymmetry 1.000e[+]300"):
        require_symmetric(np.array([[1e300, 0.0], [1e300, 1e300]]), "test")
    with pytest.raises(DimensionError, match="asymmetry"):
        cholesky_lower(np.array([[1e300, 0.0], [1e300, 1e300]]))
    with pytest.raises(DimensionError, match="asymmetry"):
        BlockPartition.from_matrix(_overflowing_norm_asymmetric())
    # symmetric input with an overflowing norm still passes, unchanged
    a = np.abs(_overflowing_norm_asymmetric())
    p = BlockPartition.from_matrix(a)
    assert np.array_equal(p.assemble(), a)
    b = np.array([[1e300, 1e300], [1e300 * (1 + 1e-13), 1e300]])
    assert require_symmetric(b, "test") is not None  # below the relative tolerance


def test_cholesky_positive_diagonal():
    for a in (hyperbolic_spd(5.0), random_pdp(9, 2).assemble()):
        assert np.all(np.diag(cholesky_lower(a)) > 0)


def test_reverse_cholesky_2x2():
    got = reverse_cholesky_upper(np.array([[1.0, 1.0], [1.0, 2.0]]))
    expected = np.array([[SQ2 / 2, SQ2 / 2], [0.0, SQ2]])
    assert np.max(np.abs(got - expected)) <= 1e-15


def test_reverse_cholesky_identity():
    assert np.array_equal(reverse_cholesky_upper(np.eye(3)), np.eye(3))


def test_reverse_cholesky_minij_first_row():
    u = reverse_cholesky_upper(minij())
    expected = [SQ2 / 2, math.sqrt(6) / 6, math.sqrt(3) / 6, 0.5]
    assert np.max(np.abs(u[0] - expected)) <= 1e-15
    # remaining rows of the factor in the same fixture
    assert u[2, 2] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    assert u[2, 3] == pytest.approx(1.5, abs=1e-15)
    assert u[3, 3] == pytest.approx(2.0, abs=1e-15)
    assert np.array_equal(np.tril(u, -1), np.zeros((4, 4)))


def test_reverse_cholesky_is_permuted_cholesky_bitwise():
    for a in (minij(), hyperbolic_spd(4.0), random_pdp(7, 5).assemble()):
        direct = reverse_cholesky_upper(a)
        via_perm = reverse_permute(cholesky_lower(reverse_permute(a)))
        assert np.array_equal(direct, via_perm)


def test_forward_substitute_small_fixture():
    low = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(forward_substitute(low, b), np.ones((2, 2)))


def test_forward_substitute_identity_bitwise():
    b = np.array([[1.5, -2.25], [3.0, 0.125]])
    assert np.array_equal(forward_substitute(np.eye(2), b), b)


def test_forward_substitute_residual_bound_and_rational_oracle():
    rng = SplitMix64(17)
    ints = lambda: float(rng.next_u64() % 9) - 4.0
    low = np.tril(np.array([[ints() for _ in range(4)] for _ in range(4)]), -1) + np.eye(4)
    b = np.array([[ints() for _ in range(3)] for _ in range(4)])
    x = forward_substitute(low, b)
    resid = spectral_norm(matmul(low, x) - b)
    assert resid <= 4 * gamma(4) * spectral_norm(low) * spectral_norm(x)
    # unit diagonal integer system solves exactly; compare with rationals
    lf = [[Fraction(low[i, j]) for j in range(4)] for i in range(4)]
    bf = [[Fraction(b[i, j]) for j in range(3)] for i in range(4)]
    xf = [[Fraction(0)] * 3 for _ in range(4)]
    for col in range(3):
        for i in range(4):
            s = sum(lf[i][k] * xf[k][col] for k in range(i))
            xf[i][col] = (bf[i][col] - s) / lf[i][i]
    assert np.array_equal(x, np.array([[float(v) for v in row] for row in xf]))


def test_forward_substitute_zero_diagonal():
    low = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularError):
        forward_substitute(low, np.eye(2))


def test_forward_substitute_shape_check():
    with pytest.raises(DimensionError):
        forward_substitute(np.eye(3), np.eye(2))


def test_lower_triangular_inverse_values():
    got = lower_triangular_inverse(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(got, np.array([[1.0, 0.0], [-1.0, 1.0]]))
    assert np.array_equal(lower_triangular_inverse(np.eye(3)), np.eye(3))
    assert np.array_equal(
        lower_triangular_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
    )


def test_lower_triangular_inverse_is_lower_bitwise():
    low = cholesky_lower(hyperbolic_spd(3.0)[:2, :2])
    inv = lower_triangular_inverse(low)
    assert np.array_equal(np.triu(inv, 1), np.zeros_like(inv))


def test_upper_substitute_matches_transposed_system():
    rng = SplitMix64(23)
    low = np.tril(np.array(rng.normals(16)).reshape(4, 4)) + 4.0 * np.eye(4)
    up = np.ascontiguousarray(low.T)
    b = np.array(rng.normals(8)).reshape(4, 2)
    x = upper_substitute(up, b)
    assert spectral_norm(matmul(up, x) - b) <= 1e-13 * spectral_norm(b)


def test_spd_solve_and_inverse():
    a = hyperbolic_spd(2.0)
    kappa = condition_number(a)
    inv = spd_inverse(a)
    assert np.array_equal(inv, inv.T)  # bitwise symmetric by construction
    assert spectral_norm(matmul(a, inv) - np.eye(4)) <= 40 * EPS * kappa
    b = np.arange(8.0).reshape(4, 2)
    x = spd_solve(a, b)
    assert spectral_norm(matmul(a, x) - b) <= 40 * EPS * kappa * spectral_norm(b)
