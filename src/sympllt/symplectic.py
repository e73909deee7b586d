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

from .dense import EPS, _require_finite, as_matrix, matmul, spectral_norm
from .errors import DimensionError, DomainError, NotSymplecticError, UsageError
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

    Factors and intermediates are computed on first use and cached as
    read-only arrays; the blocks must not change once one has been read.
    """

    n: int
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @classmethod
    def from_matrix(cls, a):
        """Split a finite, symmetric matrix of even order into its blocks."""
        a = as_matrix(a)
        # before the symmetry test: NaN fails every comparison, so that
        # test alone would let it through
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
    def shared(self):
        """(l11, l21) of both algorithms: l11 = chol(a11), l11 l21^T = a12."""
        l11 = cholesky_lower(self.a11, stage="leading-block cholesky")
        l21 = np.ascontiguousarray(forward_substitute(l11, self.a12).T)
        return _read_only(l11), _read_only(l21)

    @cached_property
    def schur(self):
        return _read_only(schur_complement(self, self.shared[1]))

    @cached_property
    def w1(self):
        return algorithm_w1(self)

    @cached_property
    def w2(self):
        return algorithm_w2(self)

    @cached_property
    def inv_a11(self):
        """inv(a11) = l22 l22^T from the w1 factor; bitwise spd_inverse(a11)."""
        l22 = self.w1.l22
        return _read_only(matmul(l22, np.ascontiguousarray(l22.T)))

    @cached_property
    def coupling(self):
        """inv(a11) a12 from two solves with l11; bitwise spd_solve(a11, a12)."""
        l11, l21 = self.shared
        return _read_only(upper_substitute(np.ascontiguousarray(l11.T),
                                           np.ascontiguousarray(l21.T)))


@dataclass(frozen=True)
class BlockFactor:
    """Factor L = [l11 0; l21 l22] with l11 lower and l22 upper triangular."""

    n: int
    l11: np.ndarray
    l21: np.ndarray
    l22: np.ndarray
    algorithm: str  # 'w1' | 'w2'

    def assemble(self):
        n = self.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = self.l11
        out[n:, :n] = self.l21
        out[n:, n:] = self.l22
        return out

    def residual(self, p):
        """a - L L^T against the partition the factor came from."""
        lmat = self.assemble()
        return p.assemble() - matmul(lmat, lmat.T)


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


def schur_complement(p, l21):
    """a22 - l21 l21^T, symmetrized by averaging after the subtraction."""
    s = p.a22 - matmul(l21, np.ascontiguousarray(l21.T))
    return 0.5 * (s + s.T)


def algorithm_w1(p):
    """Structure-enforcing factorization: l22 is the inverse transpose of l11.

    In exact arithmetic L L^T reproduces the input only up to a block
    diagonal correction whose (2,2) block is inv(a11) - schur(a11).
    """
    l11, l21 = p.shared
    l22 = np.ascontiguousarray(lower_triangular_inverse(l11).T)
    return BlockFactor(n=p.n, l11=l11, l21=l21, l22=_read_only(l22), algorithm="w1")


def algorithm_w2(p):
    """Backward-stable factorization: l22 from the Schur complement.

    l11 and l21 are the partition's shared blocks, the same read-only
    arrays algorithm_w1 returns; l22 is the Reverse Cholesky factor of
    the Schur complement a22 - l21 l21^T.
    """
    l11, l21 = p.shared
    l22 = reverse_cholesky_upper(p.schur, stage="schur-complement reverse-cholesky")
    return BlockFactor(n=p.n, l11=l11, l21=l21, l22=_read_only(l22), algorithm="w2")


def distance_to_symplecticity(f, p):
    """||l22 l22^T - (a22 - l21 l21^T)|| computed from the w1 factor.

    Equals ||inv(a11) - schur(a11)|| up to rounding, the quantity that
    governs the w1 factorization error.
    """
    if f.algorithm != "w1":
        raise UsageError(
            f"distance_to_symplecticity needs a w1 factor, got {f.algorithm!r}"
        )
    inv_a11 = matmul(f.l22, np.ascontiguousarray(f.l22.T))
    s = schur_complement(p, f.l21)
    return spectral_norm(inv_a11 - s)


def symplectic_inverse(a, tol=1e-8):
    """Inverse of a structure-preserving matrix, via J^T a^T J.

    Requires loss_of_symplecticity(a) <= tol * ||a||^2; assembled by exact
    block moves, so a symmetric input yields an exactly symmetric result.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
        raise DimensionError("symplectic_inverse: matrix must be square of even order")
    loss = loss_of_symplecticity(a)
    bound = tol * spectral_norm(a) ** 2
    if loss > bound:
        raise NotSymplecticError(loss, bound)
    return _structure_inverse(a)


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


@dataclass(frozen=True)
class FactorStructureReport:
    """Residuals of the two conditions that make a block factor symplectic."""

    ok: bool
    inverse_residual: float  # ||l11^T l22 - I||
    symmetry_residual: float  # ||l21^T l11 - l11^T l21||

    def __bool__(self):
        return self.ok


def is_symplectic_block_factor(f, tol):
    """Check the two block conditions for symplecticity of [l11 0; l21 l22].

    The factor is symplectic iff l22 = l11^-T and l21^T l11 is symmetric;
    both are tested as residual norms against ``tol``.
    """
    eye = np.eye(f.n)
    r_inv = spectral_norm(matmul(np.ascontiguousarray(f.l11.T), f.l22) - eye)
    cross = matmul(np.ascontiguousarray(f.l21.T), f.l11)
    r_sym = spectral_norm(cross - cross.T)
    return FactorStructureReport(
        ok=(r_inv <= tol and r_sym <= tol),
        inverse_residual=r_inv,
        symmetry_residual=r_sym,
    )


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
