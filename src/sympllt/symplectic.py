"""Block LL^T factorization of 2n x 2n SPD matrices and structure diagnostics.

Two factorization routes share their first two blocks and differ in the
lower-right block:

* ``w1`` inverts the leading Cholesky factor, which enforces the
  structured form exactly but amplifies errors with the conditioning of
  the leading block;
* ``w2`` takes the Reverse Cholesky factor of the Schur complement,
  which is backward stable for every SPD input.

The loss-of-structure map ``omega(a) = a^T J a - J`` measures how far a
matrix is from preserving the canonical skew form J = [0 I; -I 0].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dense import EPS, _require_finite, as_matrix, matmul, norm_and_condition, spectral_norm
from .errors import DimensionError, DomainError, UsageError
from .factor import (
    cholesky_lower,
    forward_substitute,
    lower_triangular_inverse,
    require_symmetric,
    reverse_cholesky_upper,
    upper_substitute,
)


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlockPartition:
    """A symmetric 2n x 2n matrix stored as blocks (a21 is implicitly a12^T).

    Factor blocks, intermediates and the per-matrix scalars are computed on first
    use and cached, arrays as read-only; a block must not change once a
    cached value that reads it has been read.  ``l11``, ``l11_inv_t`` and
    ``inv_a11`` read only a11, which lets pdp_assemble fill a22 after
    reading ``inv_a11``.  ``kappa`` and ``kappa_a11`` raise SingularError, and the
    factors FactorError, on every read: a raised exception is not cached.
    """

    n: int
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @classmethod
    def from_matrix(cls, a):
        """Split a finite, symmetric matrix of even order into its blocks."""
        a = as_matrix(a)
        # before the symmetry test, so a non-finite matrix is reported as
        # invalid, symmetric or not
        _require_finite(a, "BlockPartition")
        a = require_symmetric(a, "BlockPartition")
        if a.shape[0] % 2 != 0:
            raise DimensionError("BlockPartition: order must be even")
        if a.shape[0] == 0:
            raise DimensionError("BlockPartition: matrix is empty")
        n = a.shape[0] // 2
        return cls(
            n=n,
            a11=a[:n, :n].copy(),
            a12=a[:n, n:].copy(),
            a22=a[n:, n:].copy(),
        )

    def assemble(self):
        n = self.n
        out = np.empty((2 * n, 2 * n))
        out[:n, :n] = self.a11
        out[:n, n:] = self.a12
        out[n:, :n] = self.a12.T
        out[n:, n:] = self.a22
        return out

    @cached_property
    def l11(self):
        """chol(a11), the (1,1) block of both factors."""
        return _read_only(cholesky_lower(self.a11, stage="leading-block cholesky"))

    @cached_property
    def l11_inv_t(self):
        """l11^-T, the (2,2) block of the w1 factor."""
        return _read_only(np.ascontiguousarray(lower_triangular_inverse(self.l11).T))

    @cached_property
    def inv_a11(self):
        """inv(a11) = l11^-T l11^-1; bitwise spd_inverse(a11).

        With ``l11`` and ``l11_inv_t`` it reads only a11, so pdp_assemble
        can read it before the (2,2) block it needs it for is filled in.
        """
        l22 = self.l11_inv_t
        return _read_only(_outer(l22, l22))

    @cached_property
    def l21(self):
        """l21 with l11 l21^T = a12, the (2,1) block of both factors."""
        return _read_only(np.ascontiguousarray(forward_substitute(self.l11, self.a12).T))

    @cached_property
    def gram(self):
        """(l11 l11^T, l21 l11^T): the blocks of L L^T that w1 and w2 share."""
        l11, l21 = self.l11, self.l21
        return _read_only(_outer(l11, l11)), _read_only(_outer(l21, l11))

    @cached_property
    def omega11(self):
        """omega(L)'s (1,1) block l11^T l21 - l21^T l11, shared by w1 and w2, as
        the one product [l11^T l21^T] [l21; -l11]: the full product's terms."""
        l11, l21 = self.l11, self.l21
        return _read_only(matmul(np.hstack([l11.T, l21.T]), np.vstack([l21, -l11])))

    @cached_property
    def schur(self):
        """a22 - l21 l21^T, symmetrized by averaging after the subtraction."""
        s = self.a22 - _outer(self.l21, self.l21)
        return _read_only(0.5 * (s + s.T))

    # Each algorithm runs once, but the partition keeps only its l22: a cached
    # factor would hold the partition that holds it, and that cycle would keep
    # every cached array alive after the last reference until a gc pass.
    _w1_l22 = cached_property(lambda self: algorithm_w1(self).l22)
    _w2_l22 = cached_property(lambda self: algorithm_w2(self).l22)
    w1 = property(lambda self: BlockFactor(self, self._w1_l22, "w1"))
    w2 = property(lambda self: BlockFactor(self, self._w2_l22, "w2"))

    @cached_property
    def coupling(self):
        """inv(a11) a12 from two solves with l11; bitwise spd_solve(a11, a12)."""
        return _read_only(upper_substitute(np.ascontiguousarray(self.l11.T),
                                           np.ascontiguousarray(self.l21.T)))

    @cached_property
    def drift(self):
        """inv(a11) - schur: in exact arithmetic, the (2,2) block of L L^T - a for w1."""
        return _read_only(self.inv_a11 - self.schur)

    @cached_property
    def cholesky(self):
        """The whole-matrix Cholesky factor, as ``cholesky_lower(self.assemble())``."""
        return _read_only(cholesky_lower(self.assemble()))

    @cached_property
    def reverse_cholesky(self):
        """The whole-matrix Reverse Cholesky factor, as ``reverse_cholesky_upper``."""
        return _read_only(reverse_cholesky_upper(self.assemble()))

    @cached_property
    def norm_inv(self):
        """||inv(a)|| with inv(a) = L^-T L^-1 from ``cholesky``; bitwise spd_inverse(a)."""
        linv = lower_triangular_inverse(self.cholesky)
        return spectral_norm(matmul(np.ascontiguousarray(linv.T), linv))

    @cached_property
    def _spectrum(self):
        # ||a|| and the deferred kappa(a) from one eigensolve
        return norm_and_condition(self.assemble())

    @cached_property
    def _spectrum_a11(self):
        return norm_and_condition(self.a11)

    @cached_property
    def norm(self):
        return self._spectrum[0]

    @cached_property
    def kappa(self):
        return self._spectrum[1]()

    @cached_property
    def norm_a11(self):
        return self._spectrum_a11[0]

    @cached_property
    def kappa_a11(self):
        return self._spectrum_a11[1]()

    @cached_property
    def omega_norm(self):
        """||omega(a)||, the loss of structure of the matrix itself."""
        return loss_of_symplecticity(self.assemble())

    @cached_property
    def norm_inv_a11(self):
        return spectral_norm(self.inv_a11)

    @cached_property
    def dist(self):
        """||inv(a11) - schur||, the distance that governs the w1 error."""
        return spectral_norm(self.drift)


@dataclass(frozen=True)
class BlockFactor:
    """Factor L = [l11 0; l21 l22] of partition p: l11, l21 are p's; l22 upper triangular."""

    p: BlockPartition
    l22: np.ndarray
    algorithm: str  # 'w1' | 'w2'

    def assemble(self):
        n = self.p.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = self.p.l11
        out[n:, :n] = self.p.l21
        out[n:, n:] = self.l22
        return out

    def residual(self):
        """a - L L^T against the partition the factor belongs to.

        L L^T = [l11 l11^T, l11 l21^T; l21 l11^T, l21 l21^T + l22 l22^T] is
        formed block by block, the (2,2) block as one product of
        x = [l21 l22] with x^T.  Each entry adds the nonzero terms of the
        full product ``matmul(L, L^T)`` in the same order and only skips
        products with the zero block, so the result is bitwise the same.
        """
        p, n = self.p, self.p.n
        g11, g21 = p.gram
        x = np.hstack([p.l21, self.l22])
        g22 = _outer(x, x)
        out = np.empty((2 * n, 2 * n))
        out[:n, :n] = p.a11 - g11
        out[:n, n:] = p.a12 - g21.T
        out[n:, :n] = p.a12.T - g21
        out[n:, n:] = p.a22 - g22
        return out

    def omega(self):
        """omega(L) = L^T J L - J, bitwise ``omega(self.assemble())``.

        J L = [l21 l22; -l11 0], so L^T J L = [o11, o12; l22^T (-l11), 0]
        with o11 = [l11^T l21^T] [l21; -l11] (``p.omega11``) and o12 = l11^T l22.
        As in residual, each block sums the full product's nonzero terms in
        the same order.  l22^T (-l11) sums o12^T's products negated, and a
        zero sum is +0.0 in both, so it is bitwise 0.0 - o12^T.
        """
        p, n = self.p, self.p.n
        o12 = matmul(np.ascontiguousarray(p.l11.T), self.l22)
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = p.omega11
        out[:n, n:] = o12
        out[n:, :n] = 0.0 - o12.T
        return out - structure_matrix(n)


def _outer(x, y):
    # x y^T with the fixed-order product
    return matmul(x, np.ascontiguousarray(y.T))


def structure_matrix(n):
    """The canonical skew-symmetric orthogonal matrix J = [0 I; -I 0]."""
    if n < 1:
        raise DomainError("structure_matrix: n must be >= 1")
    eye = np.eye(n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = eye
    out[n:, :n] = -eye
    return out


def _j_times(a):
    # J a, computed by exact block moves (no arithmetic)
    n = a.shape[0] // 2
    return np.vstack([a[n:, :], -a[:n, :]])


def omega(a):
    """Structure residual a^T J a - J; zero exactly when a preserves J."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("omega: matrix must be square")
    if a.shape[0] % 2 != 0:
        raise DimensionError("omega: order must be even")
    n = a.shape[0] // 2
    return matmul(a.T, _j_times(a)) - structure_matrix(n)


def loss_of_symplecticity(a):
    """Spectral norm of the structure residual."""
    return spectral_norm(omega(a))


def omega_blocks(p):
    """The three independent blocks of omega(assemble(p)) for symmetric input.

    Returns (o11, o12, o22); the (2,1) block is -o12^T.
    """
    eye = np.eye(p.n)
    o11 = matmul(p.a11, p.a12.T) - matmul(p.a12, p.a11)
    o12 = matmul(p.a11, p.a22) - matmul(p.a12, p.a12) - eye
    o22 = matmul(p.a12.T, p.a22) - matmul(p.a22, p.a12)
    return o11, o12, o22


def assemble_omega_blocks(o11, o12, o22):
    n = o11.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = o11
    out[:n, n:] = o12
    out[n:, :n] = -o12.T
    out[n:, n:] = o22
    return out


def algorithm_w1(p):
    """Structure-enforcing factorization: l22 is the inverse transpose of l11.

    In exact arithmetic L L^T reproduces the input only up to a block
    diagonal correction whose (2,2) block is inv(a11) - schur(a11).
    """
    return BlockFactor(p, p.l11_inv_t, "w1")


def algorithm_w2(p):
    """Backward-stable factorization: l22 is the Reverse Cholesky factor of
    the Schur complement a22 - l21 l21^T."""
    l22 = reverse_cholesky_upper(p.schur, stage="schur-complement reverse-cholesky")
    return BlockFactor(p, _read_only(l22), "w2")


def distance_to_symplecticity(f, p):
    """``p.dist`` = ||inv(a11) - schur(a11)||, which governs the w1 error.

    ``f`` must be a w1 factor of p itself: p.w1 or algorithm_w1(p).
    """
    if f.algorithm != "w1" or f.p is not p:
        raise UsageError("distance_to_symplecticity needs a w1 factor of p, "
                         f"got a {f.algorithm!r} factor")
    return p.dist


def _structure_inverse(a):
    # J^T a^T J by exact block moves (no arithmetic)
    n = a.shape[0] // 2
    at = a.T
    out = np.empty_like(a)
    out[:n, :n] = at[n:, n:]
    out[:n, n:] = -at[n:, :n]
    out[n:, :n] = -at[:n, n:]
    out[n:, n:] = at[:n, :n]
    return out


def gamma(n, eps=EPS):
    """Rounding accumulation factor n*eps / (1 - n*eps), defined for n*eps < 1."""
    if n < 1:
        raise DomainError("gamma: n must be a positive integer")
    if eps < 0:
        raise DomainError("gamma: eps must be nonnegative")
    ne = n * eps
    if ne >= 1.0:
        raise DomainError(f"gamma: n*eps = {ne!r} is not below 1")
    return ne / (1.0 - ne)
