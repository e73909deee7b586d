"""Triangular factorization kernels.

All four kernels fix their accumulation order (ascending over the
eliminated index), so factors are bit-reproducible and carry the textbook
componentwise backward-error bounds for unblocked elimination.
"""

import math

import numpy as np

from .dense import _equals_transpose, as_matrix, frobenius_norm, matmul, reverse_permute
from .errors import DimensionError, PivotNotPositiveError, SingularError

# asymmetry beyond this multiple of ||a||_F is treated as a caller bug,
# not silently symmetrized away
SYMMETRY_RTOL = 1e-12


def require_symmetric(a, op):
    """``a`` as a square matrix: at once if a == a^T (``is_bitwise_symmetric``'s rule), else
    if its skew is within SYMMETRY_RTOL or, non-finite, NaN matches NaN; else DimensionError."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{op}: matrix must be square, got {a.shape}")
    if _equals_transpose(a):
        return a
    if not np.isfinite(a).all():
        # a NaN fails every comparison with the tolerance: demand bitwise symmetry
        if not np.array_equal(a, a.T, equal_nan=True):
            raise DimensionError(f"{op}: matrix with NaN or infinite entries is not symmetric")
        return a
    # the overflow of ||a||_F (or of a - a^T) is handled here, so numpy need not warn of it
    with np.errstate(over="ignore"):
        b, norm = a, frobenius_norm(a)
        if math.isinf(norm):
            # every skew is below an overflowed ||a||_F: compare at the scale of max|a|
            b = a / np.max(np.abs(a))
            norm = frobenius_norm(b)
        diff = b - b.T
        skew = float(np.max(np.abs(diff, out=diff), initial=0.0))
        if skew > SYMMETRY_RTOL * norm:
            raise DimensionError(
                f"{op}: asymmetry {float(np.max(np.abs(a - a.T))):.3e} exceeds "
                f"{SYMMETRY_RTOL:.0e} * ||a||_F"
            )
    return a


def cholesky_lower(a, stage="cholesky"):
    """Unblocked right-looking Cholesky: a = L L^T with L lower triangular.

    Raises PivotNotPositiveError (with the 1-based pivot index) when the
    input is not numerically positive definite.
    """
    a = require_symmetric(a, "cholesky_lower")
    n = a.shape[0]
    work = a.copy()
    low = np.zeros_like(work)
    for j in range(n):
        d = work[j, j]
        if not d > 0.0:  # catches NaN as well
            raise PivotNotPositiveError(j + 1, d, stage=stage)
        dj = math.sqrt(d)
        low[j, j] = dj
        if j + 1 < n:
            col = work[j + 1 :, j] / dj
            low[j + 1 :, j] = col
            work[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    return low


def reverse_cholesky_upper(a, stage="reverse-cholesky"):
    """Reverse Cholesky: a = U U^T with U upper triangular, positive diagonal.

    Built from the permutation identity U = P chol(P a P) P with P the
    reversal permutation, so the identity holds bitwise by construction.
    """
    low = cholesky_lower(reverse_permute(a), stage=stage)
    return reverse_permute(low)


def forward_substitute(low, b):
    """Solve low * X = b by substitution in ascending row order.

    ``low`` is lower triangular with nonzero diagonal; ``b`` has matching
    row count and may have any number of columns.
    """
    low = as_matrix(low)
    b = as_matrix(b)
    n = low.shape[0]
    if low.shape[1] != n:
        raise DimensionError("forward_substitute: triangular factor must be square")
    if b.shape[0] != n:
        raise DimensionError(
            f"forward_substitute: rhs has {b.shape[0]} rows, expected {n}"
        )
    x = b.copy()
    for i in range(n):
        d = low[i, i]
        if d == 0.0:
            raise SingularError(f"forward_substitute: zero diagonal at row {i + 1}")
        x[i, :] /= d
        if i + 1 < n:
            x[i + 1 :, :] -= low[i + 1 :, i : i + 1] * x[i : i + 1, :]
    return x


def lower_triangular_inverse(low):
    """Inverse of a lower triangular matrix via substitution against I."""
    low = as_matrix(low)
    return forward_substitute(low, np.eye(low.shape[0]))


def upper_substitute(up, b):
    """Solve up * X = b for upper triangular ``up`` (back substitution).

    Reuses the forward kernel through the reversal permutation, keeping a
    single substitution code path.
    """
    b = as_matrix(b)
    flipped = forward_substitute(reverse_permute(up), b[::-1, :])
    return flipped[::-1, :].copy()


def spd_solve(a, b):
    """Solve a * X = b for symmetric positive definite ``a`` via Cholesky;
    the reference definition BlockPartition.coupling is tested bitwise against."""
    low = cholesky_lower(a)
    y = forward_substitute(low, b)
    return upper_substitute(low.T, y)


def spd_inverse(a):
    """Inverse of a symmetric positive definite matrix, exactly symmetric.

    Formed as L^-T L^-1 from the triangular inverse; the fixed product order
    makes the result bitwise symmetric.  The reference definition
    BlockPartition.inv_a11 and norm_inv are tested bitwise against.
    """
    low = cholesky_lower(a)
    linv = lower_triangular_inverse(low)
    return matmul(linv.T, linv)
