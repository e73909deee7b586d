"""Dense matrix kernels: deterministic products, norms, and spectral quantities.

Matrices are plain 2-D float64 numpy arrays in row-major order.  The
product fixes its accumulation order, in numpy's einsum loop where an
import-time probe shows it exact and in a Python loop otherwise, so runs
are bit-identical and the rounding model for recursive summation applies.
"""

import numpy as np

from .errors import DimensionError, InvalidEntryError, SingularError

# unit roundoff of IEEE binary64
EPS = 2.0 ** -53


def as_matrix(a):
    """Coerce ``a`` to a C-contiguous 2-D float64 array, validating the shape."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return np.ascontiguousarray(m)


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_finite(a, op):
    if not np.all(np.isfinite(a)):
        raise InvalidEntryError(f"{op}: input contains NaN or infinite entries")


def _plain_product(a, b):
    # every term, ascending k, each product rounded and then added to a sum from +0.0
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def _probe_inputs():
    """Operand pairs, 67, 5 and 2 columns wide to reach the vector loop's body
    and tail, on which a reordered or fused sum differs from the loop.

    * Order: exact products 1, +2^53 and -2^53 (each later pair of rows in
      turn) and zeros.  2^53 + 1 rounds to 2^53 but -2^53 + 1 is exact, so
      every order but ascending k, up to a swap of the first two terms
      (0 + t0 + t1 is t0 + t1 either way), turns some 0 into a 1.
    * Rounding: -(1 + 2^-29) + (1 + 2^-30)^2 is 0.0 rounded, 2^-60 fused.
    * k = 1 with -0.0, infinite and overflowing products, and k = 0: each
      entry is +0.0 plus its products, never a product on its own.
    """
    inner, big, x = 5, 2.0 ** 53, 1.0 + 2.0 ** -30
    pairs = [[p, q] for p in range(1, inner) for q in range(p + 1, inner)]
    for m, n in ((1, 67), (3, 5), (2, 2)):
        b = np.zeros((inner, n))
        b[0] = 1.0
        for j in range(n):
            b[pairs[j % len(pairs)], j] = big, -big
        yield np.ldexp(np.ones((m, inner)), -np.arange(m)[:, None]), b
        yield np.tile([-1.0, x], (m, 1)), np.array([[1.0 + 2.0 ** -29] * n, [x] * n])
    special = np.tile([-0.0, 1.0, -np.inf, 2.0 ** 1000, 0.0], (1, 14))
    yield np.array([[-1.0], [2.0 ** 30], [-0.5]]), special
    yield np.ones((2, 0)), np.ones((0, 3))


def _einsum_is_exact():
    """True if ``np.einsum`` gives the plain loop's bits on every probe input."""
    with np.errstate(over="ignore"):
        return all(np.array_equal(np.einsum("ik,kj->ij", a, b, optimize=False).view(np.uint64),
                                  _plain_product(a, b).view(np.uint64))
                   for a, b in _probe_inputs())


# Decided once per process: einsum takes every product of two or more columns, or none.
_EINSUM_EXACT = _einsum_is_exact()


def matmul(a, b):
    """Matrix product with a fixed summation order.

    Each entry starts from +0.0 and adds the rounded products a[i, k] b[k, j]
    in ascending k, so results are deterministic across runs and hosts, and
    exact whenever all products and partial sums are exactly representable.
    ``matmul([a c], [b; d])`` continues the sums of ``matmul(a, b)``.
    Products of two or more columns run in numpy's compiled einsum loop,
    which iterates i, k ascending, then j over C-contiguous operands: the
    same arithmetic, unless the build reorders or fuses the updates.  If the
    import-time probe finds either, every product takes the plain loop.
    One-column products always do (einsum reorders their sums), and so do
    results with a NaN: einsum adds product + sum, the loop sum + product,
    and two NaNs keep the first one's sign and payload.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    if _EINSUM_EXACT and b.shape[1] >= 2:
        out = np.einsum("ik,kj->ij", a, b, optimize=False)
        if not np.isnan(out).any():
            return out
    return _plain_product(a, b)


def frobenius_norm(a):
    """Square root of the sum of squared entries."""
    a = as_matrix(a)
    return float(np.sqrt(np.sum(np.square(a))))


def is_bitwise_symmetric(a):
    """Whether a is square and equals a^T under ``==`` (+0.0 == -0.0, NaN != NaN).

    Equal entries are the same real number, which is all ``eigvalsh`` needs;
    ``symplectic.omega`` compares uint64 bits, as it multiplies by a for a^T."""
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
    return norm_and_condition(a)[1]()


def norm_and_condition(a):
    """``spectral_norm(a)`` and a function returning ``condition_number(a)``.

    Both values come from one symmetric eigensolve when ``a`` is bitwise
    symmetric, and a condition number formed from the inverse reuses the
    norm, which is bitwise ``spectral_norm(a)``.  The condition number is
    deferred so that a caller keeps the norm of a singular matrix and sees
    its SingularError only where it asks for it.  The function holds ``a``
    only when the eigenvalues cannot give it (an indefinite or singular
    ``a``); for a positive definite one it keeps just the eigenvalues.
    """
    a = as_matrix(a)
    if a.size == 0 or a.shape[0] != a.shape[1]:
        raise DimensionError("condition number: matrix must be square and non-empty")
    _require_finite(a, "condition number")
    ev = _symmetric_eigenvalues(a)
    norm = _norm(a, ev)
    if ev is not None and ev[0] > 0.0:
        a = None  # _condition then takes the eigenvalue ratio alone
    return norm, lambda: _condition(a, ev, norm)


def _symmetric_eigenvalues(a):
    # ascending eigenvalues of a bitwise-symmetric matrix, else None
    return np.linalg.eigvalsh(a) if is_bitwise_symmetric(a) else None


def _norm(a, ev):
    if ev is not None:
        return float(max(abs(ev[0]), abs(ev[-1])))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _condition(a, ev, norm):
    if ev is not None:
        if ev[0] > 0.0:
            return float(ev[-1] / ev[0])
        if ev[0] == 0.0 or ev[-1] == 0.0:
            raise SingularError("condition_number: zero eigenvalue")
    try:
        inv = np.linalg.solve(a, np.eye(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"condition_number: {exc}") from exc
    kappa = norm * spectral_norm(inv)
    if not np.isfinite(kappa):
        raise SingularError("condition_number: singular to working precision")
    return float(kappa)


def reverse_permute(a):
    """Conjugate by the reversal permutation: entry (i, j) -> (n-1-i, n-1-j)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("reverse_permute: matrix must be square")
    return a[::-1, ::-1].copy()
