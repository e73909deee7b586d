import math
import warnings

import numpy as np
import pytest

from sympllt import (
    BlockPartition,
    DimensionError,
    DomainError,
    InvalidEntryError,
    PivotNotPositiveError,
    UsageError,
    algorithm_w1,
    algorithm_w2,
    distance_to_symplecticity,
    gamma,
    matmul,
    omega,
    omega_blocks,
    spectral_norm,
    structure_matrix,
)
from sympllt.dense import EPS
from sympllt.symplectic import _structure_inverse, assemble_omega_blocks
from sympllt.testmat import minij, pascal_symplectic, random_pdp, hyperbolic_spd

from support import within_factor

SQ2 = math.sqrt(2.0)

MINIJ_L1 = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, -1.0],
        [1.0, 1.0, 0.0, 1.0],
    ]
)


def minij_partition():
    return BlockPartition.from_matrix(minij())


def test_structure_matrix_small():
    assert np.array_equal(structure_matrix(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    j3 = structure_matrix(3)
    assert np.array_equal(matmul(j3.T, j3), np.eye(6))
    j2 = structure_matrix(2)
    assert np.array_equal(matmul(j2, j2), -np.eye(4))


def test_omega_identity_is_zero():
    assert np.array_equal(omega(np.eye(6)), np.zeros((6, 6)))


def test_omega_minij_l1_exact():
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    assert np.array_equal(omega(MINIJ_L1), expected)


def test_omega_minij_perturbed_product_exact():
    prod = matmul(MINIJ_L1, MINIJ_L1.T)  # A + dA, exactly representable
    expected = np.array(
        [
            [0.0, 1.0, 1.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, -1.0, 0.0],
        ]
    )
    assert np.array_equal(omega(prod), expected)


def test_omega_odd_order_rejected():
    with pytest.raises(DimensionError):
        omega(np.eye(3))


def test_omega_blocks_identity():
    p = BlockPartition.from_matrix(np.eye(4))
    o11, o12, o22 = omega_blocks(p)
    assert not o11.any() and not o12.any() and not o22.any()


def test_omega_blocks_match_full_omega_exactly_on_integers():
    for p in (minij_partition(), pascal_symplectic(6)):
        o11, o12, o22 = omega_blocks(p)
        assert np.array_equal(assemble_omega_blocks(o11, o12, o22), omega(p.assemble()))


def test_omega_blocks_pascal_exactly_zero():
    o11, o12, o22 = omega_blocks(pascal_symplectic(6))
    assert not o11.any() and not o12.any() and not o22.any()


def test_algorithm_w1_minij_exact():
    f = algorithm_w1(minij_partition())
    assert np.array_equal(f.assemble(), MINIJ_L1)


def test_algorithm_w1_identity():
    f = algorithm_w1(BlockPartition.from_matrix(np.eye(4)))
    assert np.array_equal(f.assemble(), np.eye(4))


def test_algorithm_w1_tam3_relative_error():
    p = BlockPartition.from_matrix(hyperbolic_spd(3.0))
    f = algorithm_w1(p)
    relerr = spectral_norm(f.residual()) / spectral_norm(p.assemble())
    assert within_factor(relerr, 3.8826e-13)


def test_algorithm_w2_minij_block():
    f = algorithm_w2(minij_partition())
    expected = np.array([[SQ2 / 2, SQ2 / 2], [0.0, SQ2]])
    assert np.max(np.abs(f.l22 - expected)) <= 1e-15


def test_algorithm_w2_identity():
    f = algorithm_w2(BlockPartition.from_matrix(np.eye(4)))
    assert np.array_equal(f.assemble(), np.eye(4))


def test_algorithm_w2_pascal_backward_error():
    p = pascal_symplectic(6)
    f = algorithm_w2(p)
    relerr = spectral_norm(f.residual()) / spectral_norm(p.assemble())
    assert relerr <= 1e-14


def test_w1_w2_share_blocks_bitwise():
    for p in (minij_partition(), random_pdp(9, 8), pascal_symplectic(8)):
        f1, f2 = algorithm_w1(p), algorithm_w2(p)
        assert np.array_equal(f1.p.l11, f2.p.l11)
        assert np.array_equal(f1.p.l21, f2.p.l21)


def test_w1_residual_structure_minij_exact():
    # the residual of the structure-enforcing route lives entirely in the
    # (2,2) block and equals schur - inv(a11) exactly on this fixture
    p = minij_partition()
    f = algorithm_w1(p)
    resid = f.residual()
    assert not resid[:2, :].any()
    assert not resid[:, :2].any()
    assert np.array_equal(resid[2:, 2:], np.array([[-1.0, 2.0], [2.0, 1.0]]))


def test_factorizations_propagate_pivot_errors():
    notspd = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises(PivotNotPositiveError):
        algorithm_w1(BlockPartition.from_matrix(notspd))
    # leading block fine, schur complement indefinite
    a = np.eye(4)
    a[2, 2] = -1.0
    with pytest.raises(PivotNotPositiveError) as err:
        algorithm_w2(BlockPartition.from_matrix(a))
    assert "schur" in err.value.stage


def test_schur_complement_minij():
    p = minij_partition()
    assert np.array_equal(p.l21, np.ones((2, 2)))
    assert np.array_equal(p.schur, np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_schur_pascal6_distance_scale():
    p = pascal_symplectic(6)
    f = algorithm_w1(p)
    dist = distance_to_symplecticity(f, p)
    assert within_factor(dist, 4.6794e-11)


def test_distance_minij_sqrt5():
    p = minij_partition()
    dist = distance_to_symplecticity(algorithm_w1(p), p)
    assert dist == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_distance_identity_zero():
    p = BlockPartition.from_matrix(np.eye(6))
    assert distance_to_symplecticity(algorithm_w1(p), p) <= 1e-15


def test_distance_tam4_scale():
    p = BlockPartition.from_matrix(hyperbolic_spd(4.0))
    dist = distance_to_symplecticity(algorithm_w1(p), p)
    assert within_factor(dist, 1.7270e-06)


def test_distance_requires_w1_factor():
    p = minij_partition()
    with pytest.raises(UsageError):
        distance_to_symplecticity(algorithm_w2(p), p)


# J^T a^T J is the inverse of a matrix that preserves J


def test_symplectic_inverse_identity_and_j():
    assert np.array_equal(_structure_inverse(np.eye(4)), np.eye(4))
    j = structure_matrix(2)
    inv = _structure_inverse(j)
    assert np.array_equal(inv, -j)
    assert np.array_equal(matmul(j, inv), np.eye(4))


def test_symplectic_inverse_pascal_product():
    a = pascal_symplectic(6).assemble()
    inv = _structure_inverse(a)
    assert np.max(np.abs(matmul(a, inv) - np.eye(12))) <= 1e-10


def test_symplectic_inverse_symmetric_result_bitwise():
    inv = _structure_inverse(hyperbolic_spd(3.0))
    assert np.array_equal(inv, inv.T)


# L = [l11 0; l21 l22] preserves J iff l11^T l22 = I and l21^T l11 is
# symmetric: the (1,2) and (1,1) blocks of omega(L) are zero


def factor_structure_residuals(f):
    """(||l11^T l22 - I||, ||l11^T l21 - l21^T l11||) from omega(L)."""
    n = f.p.n
    w = f.omega()
    return spectral_norm(w[:n, n:]), spectral_norm(w[:n, :n])


def test_is_symplectic_block_factor_identity():
    p = BlockPartition.from_matrix(np.eye(4))
    assert not p.w1.omega().any()


def test_is_symplectic_block_factor_minij_fails():
    p = minij_partition()
    inverse, symmetry = factor_structure_residuals(algorithm_w1(p))
    assert symmetry == pytest.approx(1.0, rel=1e-12)
    assert inverse == 0.0


def test_is_symplectic_block_factor_pascal_w2():
    p = pascal_symplectic(6)
    inverse, symmetry = factor_structure_residuals(algorithm_w2(p))
    assert inverse <= 1e-8 and symmetry <= 1e-8


def test_gamma_values():
    # pinned by exact rational evaluation of 10*eps / (1 - 10*eps)
    assert gamma(10) == pytest.approx(1.1102230246251577e-15, rel=1e-15)


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(2 ** 53)  # n eps = 1
    with pytest.raises(DomainError):
        gamma(0)


def test_omega_l1_structure_floating_point():
    # nonzero block confined to (1,1) up to rounding at the ||L||^2 scale
    for p in (BlockPartition.from_matrix(hyperbolic_spd(4.0)), random_pdp(10, 6)):
        f = algorithm_w1(p)
        n = p.n
        om = omega(f.assemble())
        scale = 100 * n * EPS * spectral_norm(f.assemble()) ** 2
        assert spectral_norm(om[:n, n:]) <= scale
        assert spectral_norm(om[n:, n:]) <= scale


def test_omega_ordering_l1_vs_l2():
    for p in (
        minij_partition(),
        BlockPartition.from_matrix(hyperbolic_spd(6.0)),
        pascal_symplectic(10),
        random_pdp(12, 9),
    ):
        f1, f2 = algorithm_w1(p), algorithm_w2(p)
        ol1 = spectral_norm(omega(f1.assemble()))
        ol2 = spectral_norm(omega(f2.assemble()))
        nl2 = spectral_norm(f2.assemble())
        assert ol1 <= ol2 + 100 * p.n * EPS * nl2 ** 2


def test_block_partition_validation():
    with pytest.raises(DimensionError):
        BlockPartition.from_matrix(np.eye(3))
    with pytest.raises(DimensionError):
        BlockPartition.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_from_matrix_rejects_empty_matrix():
    with pytest.raises(DimensionError, match="empty"):
        BlockPartition.from_matrix(np.zeros((0, 0)))


def test_partition_assemble_round_trip():
    a = hyperbolic_spd(5.0)
    p = BlockPartition.from_matrix(a)
    assert np.array_equal(p.assemble(), a)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 0), (2, 1)])
def test_from_matrix_rejects_non_finite(bad, where):
    a = minij()
    a[where] = bad  # (3, 0) sits in a21, which the partition drops
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidEntryError):
            BlockPartition.from_matrix(a)


@pytest.mark.parametrize("where", [(1, 1), (3, 3)])  # in a11, in a22
def test_algorithm_w2_rejects_infinite_partition(where):
    a = minij()
    a[where] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidEntryError):
            algorithm_w2(BlockPartition.from_matrix(a))
