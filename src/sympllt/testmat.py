"""Deterministic generators for the test-matrix families.

Every family is symmetric by construction and reproducible bit-for-bit
from its parameters.  Randomness comes from a fully specified generator
(SplitMix64 driving Box-Muller pairs), never from platform RNG state.
"""

import math

import numpy as np

from .dense import _is_int, matmul, spectral_norm
from .errors import DomainError, InvalidEntryError
from .symplectic import BlockPartition, _structure_inverse

_MASK = (1 << 64) - 1
_TWO53 = 2.0 ** -53
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z):
    """The SplitMix64 finaliser over a uint64 array (products wrap mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64 stream: 64-bit state, one mix per output word."""

    def __init__(self, seed):
        if not _is_int(seed):
            raise DomainError(f"SplitMix64: seed must be an integer, got {seed!r}")
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + _GOLDEN) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _TWO53

    def normal_pair(self):
        """One Box-Muller pair of independent standard normals.

        A zero first uniform (probability 2^-53) is redrawn so the log
        stays finite.
        """
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        return r * math.cos(angle), r * math.sin(angle)

    def normals(self, count):
        """``count`` standard normals as a float64 array: the first values
        of successive ``normal_pair()`` draws, bitwise.

        The state after i steps is seed + i * golden (mod 2^64), so the
        whole block of words is mixed at once in uint64 arithmetic.  The
        logarithm, cosine and sine stay libm's ``math`` functions, applied
        one element at a time, so the bytes do not depend on numpy's own
        transcendental kernels.  A zero first uniform would shift the
        pairing of the redraw; the block then falls back to ``normal_pair``.
        """
        pairs = (max(int(count), 0) + 1) // 2  # a numpy count would overflow below
        steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
        words = _mix(np.uint64(self.state) + steps * np.uint64(_GOLDEN))
        u = (words >> np.uint64(11)).astype(np.float64) * _TWO53
        u1, u2 = u[0::2], u[1::2]
        if not u1.all():
            out = []
            while len(out) < count:
                out.extend(self.normal_pair())
            return np.array(out[:count])
        self.state = (self.state + 2 * pairs * _GOLDEN) & _MASK
        r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
        angle = ((2.0 * math.pi) * u2).tolist()
        out = np.empty(2 * pairs)
        out[0::2] = r * np.array(list(map(math.cos, angle)))
        out[1::2] = r * np.array(list(map(math.sin, angle)))
        return out[:count]


def standard_normal_matrix(n, seed):
    """n x n matrix of standard normals, filled column by column."""
    rng = SplitMix64(seed)
    return rng.normals(n * n).reshape((n, n), order="F").copy()


def _check_finite(a, family):
    if not np.all(np.isfinite(a)):
        raise InvalidEntryError(f"{family}: generated non-finite entries")
    return a


def minij():
    """The 4x4 min(i,j) matrix: integer SPD, all-ones Cholesky factor,
    and not structure-preserving."""
    return np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 2.0, 2.0, 2.0],
            [1.0, 2.0, 3.0, 3.0],
            [1.0, 2.0, 3.0, 4.0],
        ]
    )


def hyperbolic_s(theta):
    """The 4x4 hyperbolic-rotation test matrix S(theta).

    Structure-preserving in exact arithmetic; its floating-point image is
    only nearly so, which is the point of the family.
    """
    if not math.isfinite(theta):
        raise DomainError("hyperbolic_s: theta must be finite")
    try:
        c = math.cosh(theta)
        s = math.sinh(theta)
    except OverflowError:
        raise InvalidEntryError("hyperbolic_s: generated non-finite entries") from None
    return np.array(
        [
            [c, s, 0.0, s],
            [s, c, s, 0.0],
            [0.0, 0.0, c, -s],
            [0.0, 0.0, -s, c],
        ]
    )


def hyperbolic_spd(theta):
    """SPD family S(theta)^T S(theta), symmetrized."""
    s = hyperbolic_s(theta)
    a = matmul(s.T, s)
    return _check_finite(0.5 * (a + a.T), "hyperbolic_spd")


def hyperbolic_spd_inverse(theta):
    """The inverse family, via the structure inverse J^T A J of A = S^T S.

    Exact block moves keep the result bitwise symmetric and deterministic;
    for an exactly structure-preserving argument this is the exact inverse.
    """
    return _structure_inverse(hyperbolic_spd(theta))


def _pascal_int(n):
    # symmetric Pascal matrix: P[i][j] = C(i+j, i)
    return [[math.comb(i + j, i) for j in range(n)] for i in range(n)]


def _pascal_inverse_int(n):
    # P = L L^T with L[i][j] = C(i, j); inv(L)[i][j] = (-1)^(i-j) C(i, j),
    # so inv(P)[i][j] = sum_k C(k, i) C(k, j) (-1)^(i+j), all in exact ints
    sign = lambda i, j: -1 if (i + j) % 2 else 1
    return [
        [
            sign(i, j) * sum(math.comb(k, i) * math.comb(k, j) for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


def pascal_symplectic(n):
    """Exactly structure-preserving integer family [g, I; I, 2 inv(g)].

    g is the flipped Pascal matrix; its inverse is computed in exact
    integer arithmetic, so omega of the assembled matrix is the zero
    matrix bitwise.  n is an integer in 1..PASCAL_MAX_N.
    """
    if not _is_int(n) or not 1 <= n <= PASCAL_MAX_N:
        raise DomainError(f"pascal_symplectic: n must be in 1..{PASCAL_MAX_N}, got {n!r}")
    g_int = _pascal_int(n)
    ginv_int = _pascal_inverse_int(n)
    flip = lambda m: [row[::-1] for row in m[::-1]]
    g = np.array(flip(g_int), dtype=np.float64)
    ginv = np.array(flip(ginv_int), dtype=np.float64)
    return BlockPartition(n=n, a11=g, a12=np.eye(n), a22=2.0 * ginv)


def diag_family(t, theta):
    """The 4x4 diagonal family (a, a_hat): a = [g, I; I, 2 inv(g)] with
    g = diag(t, 1/t), and a_hat perturbs the (2,2) entry to 1/t + theta.

    For t an exact power of two a is exactly structure-preserving; the
    perturbed a_hat loses structure by exactly 2*t*theta in the spectral
    norm (up to rounding of 1/t).
    """
    if t < 1.0:
        raise DomainError("diag_family: t must be >= 1")
    if theta < 0.0:
        raise DomainError("diag_family: theta must be >= 0")
    rt = 1.0 / t
    a = np.array(
        [
            [t, 0.0, 1.0, 0.0],
            [0.0, rt, 0.0, 1.0],
            [1.0, 0.0, 2.0 * rt, 0.0],
            [0.0, 1.0, 0.0, 2.0 * t],
        ]
    )
    ahat = a.copy()
    ahat[1, 1] = rt + theta
    return _check_finite(a, "diag_family"), _check_finite(ahat, "diag_family")


def pdp_assemble(g, h):
    """Assemble the structure-preserving SPD form [g, gh; hg, hgh + inv(g)].

    ``g`` must be SPD and ``h`` symmetric.  inv(g) is the partition's own
    ``inv_a11``, which reads only the (1,1) block, so the returned
    partition has chol(g), its inverse transpose and inv(g) cached
    already.  The (2,2) block is symmetrized after assembly.
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g.shape != h.shape or g.shape[0] != g.shape[1]:
        raise DomainError("pdp_assemble: g and h must be square of equal order")
    n = g.shape[0]
    p = BlockPartition(n=n, a11=g.copy(), a12=matmul(g, h), a22=np.zeros((n, n)))
    a22 = matmul(h, p.a12) + p.inv_a11
    p.a22[...] = 0.5 * (a22 + a22.T)
    return p


# the largest n random_pdp makes (order 2000): generation time grows as n^3
# and memory as n^2
RANDOM_MAX_N = 1000
# the largest n pascal_symplectic makes: every entry stays well below 2^53
PASCAL_MAX_N = 16


def random_pdp(n, seed):
    """Random structure-preserving SPD family from the fixed generator.

    r is n x n standard normal, h = (r + r^T)/2, g = r r^T plus a relative
    ridge of 1e-12 * trace / n to guard against a singular draw.  Same
    (n, seed) always reproduces the same bytes.  n is an integer in
    1..RANDOM_MAX_N, checked before anything is allocated.
    """
    if not _is_int(n) or not 1 <= n <= RANDOM_MAX_N:
        raise DomainError(f"random_pdp: n must be in 1..{RANDOM_MAX_N}, got {n!r}")
    r = standard_normal_matrix(n, seed)
    h = 0.5 * (r + r.T)
    g = matmul(r, r.T)
    ridge = 1e-12 * float(np.trace(g)) / n
    g = g + ridge * np.eye(n)
    return pdp_assemble(g, h)


def symmetric_perturbation(order, norm, seed):
    """Symmetric random matrix scaled to the requested spectral norm."""
    if not _is_int(order):
        raise DomainError(f"symmetric_perturbation: order must be an integer, got {order!r}")
    r = standard_normal_matrix(order, seed)
    e = 0.5 * (r + r.T)
    scale = spectral_norm(e)
    if scale == 0.0:
        raise DomainError("symmetric_perturbation: degenerate draw")
    return e * (norm / scale)

