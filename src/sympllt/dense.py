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


def _safe_start(acc):
    """True if ``acc`` is finite and has no -0.0 entry, so no +-0 term changes it."""
    return bool(np.isfinite(acc).all() and not np.signbit(acc[acc == 0.0]).any())


def matmul(a, b, acc=None):
    """Matrix product with a fixed summation order.

    Each entry is accumulated over the shared index k in ascending order
    (rank-1 updates), so results are deterministic across runs and exact
    whenever all products and partial sums are exactly representable.
    The running sums start from +0.0, or from a copy of ``acc`` when it is
    given: ``matmul(c, d, matmul(a, b))`` is bitwise the product of
    ``[a c]`` and ``[b; d]``, and ``acc`` itself is not modified.

    Terms that cannot change a bit are skipped.  For finite inputs with an
    inner dimension of at least 64, the k-th update touches only the rows
    between the first and last nonzero of ``a[:, k]`` and the columns
    between the first and last nonzero of ``b[k, :]``; a k with an all-zero
    column or row is skipped.  The result is bitwise that of the full loop
    because a running sum that starts at +0.0 is never -0.0, so adding a
    +-0 product never changes it.  The same holds from an ``acc`` that is
    finite and has no -0.0 entry; any other ``acc``, and NaN or infinite
    inputs, keep every term (``0 * inf`` is NaN, ``-0.0 + 0.0`` is +0.0).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    (m, inner), n = a.shape, b.shape[1]
    if acc is None:
        out = np.zeros((m, n))
    else:
        out = as_matrix(acc).copy()
        if out.shape != (m, n):
            raise DimensionError(f"matmul: accumulator is {out.shape}, product is {(m, n)}")
    if (inner < _MIN_INNER or out.size == 0
            or not (np.isfinite(a).all() and np.isfinite(b).all())
            or not (acc is None or _safe_start(out))):
        for k in range(inner):
            out += a[:, k : k + 1] * b[k : k + 1, :]
        return out
    row_first, row_stop = _nonzero_extents(a != 0)
    col_first, col_stop = _nonzero_extents((b != 0).T)
    bands = max(1, m // _BAND_ROWS)
    height = -(-m // bands)
    for i0 in range(0, m, height):
        i1 = min(i0 + height, m)
        for k, r0, r1, c0, c1 in zip(range(inner), row_first, row_stop, col_first, col_stop):
            r0, r1 = max(r0, i0), min(r1, i1)
            if r0 < r1 and c0 < c1:
                out[r0:r1, c0:c1] += a[r0:r1, k : k + 1] * b[k : k + 1, c0:c1]
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
    return _norm(a, _symmetric_eigenvalues(a))


def condition_number(a):
    """Spectral condition number ||a|| * ||a^-1||.

    Symmetric positive definite input uses the eigenvalue ratio from the
    symmetric eigensolver; anything else multiplies the spectral norms of
    the matrix and of its inverse obtained by factorization-based solves.
    """
    a = as_matrix(a)
    if a.size == 0 or a.shape[0] != a.shape[1]:
        raise DimensionError("condition_number: matrix must be square and non-empty")
    _require_finite(a, "condition_number")
    return _condition(a, _symmetric_eigenvalues(a))


def norm_and_condition(a):
    """``spectral_norm(a)`` and a function returning ``condition_number(a)``.

    Both values come from one symmetric eigensolve when ``a`` is bitwise
    symmetric, and are bitwise those of the two separate calls.  The
    condition number is deferred so that a caller keeps the norm of a
    singular matrix and sees condition_number's SingularError where it
    asks for the condition number.
    """
    a = as_matrix(a)
    if a.size == 0 or a.shape[0] != a.shape[1]:
        raise DimensionError("norm_and_condition: matrix must be square and non-empty")
    _require_finite(a, "norm_and_condition")
    ev = _symmetric_eigenvalues(a)
    return _norm(a, ev), lambda: _condition(a, ev)


def _symmetric_eigenvalues(a):
    # ascending eigenvalues of a bitwise-symmetric matrix, else None
    return np.linalg.eigvalsh(a) if is_bitwise_symmetric(a) else None


def _norm(a, ev):
    if ev is not None:
        return float(max(abs(ev[0]), abs(ev[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _condition(a, ev):
    if ev is not None:
        if ev[0] > 0.0:
            return float(ev[-1] / ev[0])
        if ev[0] == 0.0 or ev[-1] == 0.0:
            raise SingularError("condition_number: zero eigenvalue")
    try:
        inv = np.linalg.solve(a, np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"condition_number: {exc}") from exc
    kappa = _norm(a, ev) * spectral_norm(inv)
    if not np.isfinite(kappa):
        raise SingularError("condition_number: singular to working precision")
    return float(kappa)


def reverse_permute(a):
    """Conjugate by the reversal permutation: entry (i, j) -> (n-1-i, n-1-j)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("reverse_permute: matrix must be square")
    return a[::-1, ::-1].copy()
