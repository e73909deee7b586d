"""Dense matrix kernels: deterministic products, norms, and spectral quantities.

Matrices are plain 2-D float64 numpy arrays in row-major order.  The
multiplication kernel fixes its accumulation order so repeated runs are
bit-identical and the standard rounding-error model for recursive
summation applies to every product formed by the library.
"""

import numpy as np

from .errors import DimensionError, InvalidEntryError, SingularError

# unit roundoff of IEEE binary64
EPS = 2.0 ** -53


def as_matrix(a):
    """Coerce ``a`` to a 2-D float64 array, validating the shape."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return np.ascontiguousarray(m)


def _require_finite(a, op):
    if not np.all(np.isfinite(a)):
        raise InvalidEntryError(f"{op}: input contains NaN or infinite entries")


# Products whose inner dimension is below this keep the plain loop: the
# structure analysis below costs more than it saves at that size.
_MIN_INNER = 64
# Row height the output is computed in, so a band stays cache-resident;
# products with fewer rows than two bands are done in one band.
_BAND_ROWS = 128


def _nonzero_extents(nonzero):
    """[first, last + 1) of the True entries of each column (empty: [0, 0))."""
    length = nonzero.shape[0]
    first = nonzero.argmax(axis=0)
    stop = length - nonzero[::-1].argmax(axis=0)
    stop[~nonzero.any(axis=0)] = 0
    return first.tolist(), stop.tolist()


def matmul(a, b):
    """Matrix product with a fixed summation order.

    Each entry is accumulated over the shared index k in ascending order
    (rank-1 updates), so results are deterministic across runs and exact
    whenever all products and partial sums are exactly representable.

    Terms that cannot change a bit are skipped.  For finite inputs with an
    inner dimension of at least 64, the k-th update touches only the rows
    between the first and last nonzero of ``a[:, k]`` and the columns
    between the first and last nonzero of ``b[k, :]``; a k with an all-zero
    column or row is skipped.  When ``b`` equals ``a.T`` and the output
    spans several row bands, only the lower triangle is accumulated and
    the upper one is copied from it.  The result is bitwise that of the
    full loop because a running sum that starts at +0.0 is never -0.0, so
    adding a +-0 product never changes it, and because IEEE multiplication
    commutes, so ``a a^T`` is bitwise symmetric.  NaN or infinite inputs
    keep every term (``0 * inf`` is NaN).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    (m, inner), n = a.shape, b.shape[1]
    out = np.zeros((m, n))
    if (inner < _MIN_INNER or out.size == 0
            or not (np.isfinite(a).all() and np.isfinite(b).all())):
        for k in range(inner):
            out += a[:, k : k + 1] * b[k : k + 1, :]
        return out
    row_first, row_stop = _nonzero_extents(a != 0)
    col_first, col_stop = _nonzero_extents((b != 0).T)
    bands = max(1, m // _BAND_ROWS)
    height = -(-m // bands)
    symmetric = bands > 1 and np.array_equal(a, b.T)
    for i0 in range(0, m, height):
        i1 = min(i0 + height, m)
        col_limit = i1 if symmetric else n
        for k, r0, r1, c0, c1 in zip(range(inner), row_first, row_stop, col_first, col_stop):
            r0, r1, c1 = max(r0, i0), min(r1, i1), min(c1, col_limit)
            if r0 < r1 and c0 < c1:
                out[r0:r1, c0:c1] += a[r0:r1, k : k + 1] * b[k : k + 1, c0:c1]
        if symmetric:
            out[:i0, i0:i1] = out[i0:i1, :i0].T
    return out


def frobenius_norm(a):
    """Square root of the sum of squared entries."""
    a = as_matrix(a)
    return float(np.sqrt(np.sum(np.square(a))))


def is_bitwise_symmetric(a):
    a = as_matrix(a)
    return a.shape[0] == a.shape[1] and bool(np.array_equal(a, a.T))


def spectral_norm(a):
    """Largest singular value.

    Bitwise-symmetric inputs go through the symmetric eigensolver; other
    inputs through LAPACK's singular value decomposition, without forming
    the squared Gram matrix a^T a.  Both are deterministic on one host and
    BLAS/LAPACK build, not across platforms.  The norm is a final
    reduction that no factor depends on, so it does not use the
    fixed-order ``matmul``.
    """
    a = as_matrix(a)
    if a.size == 0:
        raise DimensionError("spectral_norm: matrix is empty")
    _require_finite(a, "spectral_norm")
    if is_bitwise_symmetric(a):
        ev = np.linalg.eigvalsh(a)
        return float(max(abs(ev[0]), abs(ev[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def condition_number(a):
    """Spectral condition number ||a|| * ||a^-1||.

    Symmetric positive definite input uses the eigenvalue ratio from the
    symmetric eigensolver; anything else multiplies the spectral norms of
    the matrix and of its inverse obtained by factorization-based solves.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("condition_number: matrix must be square")
    _require_finite(a, "condition_number")
    if is_bitwise_symmetric(a):
        ev = np.linalg.eigvalsh(a)
        if ev[0] > 0.0:
            return float(ev[-1] / ev[0])
        if ev[0] == 0.0 or ev[-1] == 0.0:
            raise SingularError("condition_number: zero eigenvalue")
    try:
        inv = np.linalg.solve(a, np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"condition_number: {exc}") from exc
    kappa = spectral_norm(a) * spectral_norm(inv)
    if not np.isfinite(kappa):
        raise SingularError("condition_number: singular to working precision")
    return float(kappa)


def reverse_permute(a):
    """Conjugate by the reversal permutation: entry (i, j) -> (n-1-i, n-1-j)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("reverse_permute: matrix must be square")
    return a[::-1, ::-1].copy()
