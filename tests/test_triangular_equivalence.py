"""The triangular kernels and the random family's generator against frozen
copies of their plain forms.

``pdp_assemble`` takes inv(g) from the partition's own leading-block
factor instead of ``spd_inverse``, and ``cholesky_lower`` and
``lower_triangular_inverse`` are the kernels every factor is built from.
A change to any of them may not change a bit of any result, so results
are compared as uint64 views (-0.0 vs +0.0 and NaN payloads count), and
so are exceptions with their pivot and value.
"""

import math

import numpy as np
import pytest

from sympllt import factor
from sympllt.dense import as_matrix, matmul
from sympllt.errors import DimensionError, PivotNotPositiveError, SingularError, SympLLTError
from sympllt.factor import cholesky_lower, lower_triangular_inverse
from sympllt.symplectic import BlockPartition
from sympllt.testmat import pdp_assemble, random_pdp, standard_normal_matrix

ORDERS = list(range(1, 41)) + [63, 64, 65, 100, 129, 200, 257]


def frozen_cholesky_lower(a, stage="cholesky"):
    """The plain kernel: the whole trailing square is updated at every step."""
    a = as_matrix(a)
    n = a.shape[0]
    work = a.copy()
    low = np.zeros_like(work)
    for j in range(n):
        d = work[j, j]
        if not d > 0.0:
            raise PivotNotPositiveError(j + 1, d, stage=stage)
        dj = math.sqrt(d)
        low[j, j] = dj
        if j + 1 < n:
            col = work[j + 1 :, j] / dj
            low[j + 1 :, j] = col
            work[j + 1 :, j + 1 :] -= col[:, None] * col[None, :]
    return low


def frozen_forward_substitute(low, b):
    """The plain substitution: every column of every row, ascending rows."""
    low = as_matrix(low)
    x = as_matrix(b).copy()
    n = low.shape[0]
    for i in range(n):
        d = low[i, i]
        if d == 0.0:
            raise SingularError(f"forward_substitute: zero diagonal at row {i + 1}")
        x[i, :] /= d
        if i + 1 < n:
            x[i + 1 :, :] -= low[i + 1 :, i : i + 1] * x[i : i + 1, :]
    return x


def frozen_lower_triangular_inverse(low):
    low = as_matrix(low)
    return frozen_forward_substitute(low, np.eye(low.shape[0]))


def frozen_pdp_assemble(g, h):
    """The generator as it was: inv(g) from a Cholesky factor of its own."""
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    linv = frozen_lower_triangular_inverse(frozen_cholesky_lower(g))
    ginv = matmul(np.ascontiguousarray(linv.T), linv)
    a12 = matmul(g, h)
    a22 = matmul(h, a12) + ginv
    a22 = 0.5 * (a22 + a22.T)
    return BlockPartition(n=g.shape[0], a11=g.copy(), a12=a12, a22=a22)


def frozen_random_pdp(n, seed):
    r = standard_normal_matrix(n, seed)
    h = 0.5 * (r + r.T)
    g = matmul(r, np.ascontiguousarray(r.T))
    g = g + 1e-12 * float(np.trace(g)) / n * np.eye(n)
    return frozen_pdp_assemble(g, h)


def outcome(fn, *args):
    """The bits a call returns, or the exception it raises with its details."""
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except SympLLTError as exc:
            return (type(exc).__name__, str(exc))
    return out.shape, out.view(np.uint64).tolist()


def spd_matrices(order):
    """Three SPD matrices of one order: a random_pdp leading block (often
    ill-conditioned), a well-conditioned Gram matrix and a whole random_pdp."""
    rng = np.random.default_rng(order)
    x = rng.standard_normal((order, order))
    mats = [random_pdp(order, 300 + order).a11, matmul(x, np.ascontiguousarray(x.T)) / order
            + np.eye(order)]
    if order % 2 == 0:
        mats.append(random_pdp(order // 2, order).assemble())
    return mats


@pytest.mark.parametrize("order", ORDERS)
def test_cholesky_matches_the_full_square_update(order):
    for a in spd_matrices(order):
        want = outcome(frozen_cholesky_lower, a)
        assert outcome(cholesky_lower, a) == want
        # the loop never reads the strict upper triangle: poisoning it in
        # the plain kernel's input changes nothing either
        poisoned = a.copy()
        poisoned[np.triu_indices(order, 1)] = np.nan
        assert outcome(frozen_cholesky_lower, poisoned) == want


@pytest.mark.parametrize("order", [2, 5, 40, 65, 129])
def test_cholesky_failures_match(order):
    a = spd_matrices(order)[1]
    for k in sorted({0, order // 2, order - 1}):
        bad = a.copy()
        bad[k, k] = -1.0 if k == 0 else bad[k, k] - 10.0 * order
        assert outcome(cholesky_lower, bad) == outcome(frozen_cholesky_lower, bad)
        assert outcome(cholesky_lower, bad)[0] == "PivotNotPositiveError"
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((order - 1, 0), (order // 2, order // 2)):
            bad = a.copy()
            bad[i, j] = bad[j, i] = value
            assert outcome(cholesky_lower, bad) == outcome(frozen_cholesky_lower, bad)


def factors(order):
    """Lower triangular factors of one order: the Cholesky factors of the
    SPD matrices, and ones with negative, zero or non-finite entries."""
    rng = np.random.default_rng(1000 + order)
    out = [frozen_cholesky_lower(a) for a in spd_matrices(order)]
    base = np.tril(rng.standard_normal((order, order)))
    np.fill_diagonal(base, 1.0 + rng.random(order))
    out.append(base)
    garbage = base + np.triu(rng.standard_normal((order, order)), 1)
    out.append(garbage)  # an upper triangle neither kernel reads
    negative_zero = base.copy()
    negative_zero[1::2, 0] = -0.0
    out.append(negative_zero)
    for k in sorted({0, order // 2, order - 1}):
        # a negative pivot leaves -0.0 above the diagonal in the full loop
        for value in (-base[k, k], 0.0, np.inf, -np.inf, np.nan):
            pivot = base.copy()
            pivot[k, k] = value
            out.append(pivot)
    for value in (np.inf, -np.inf, np.nan) if order > 1 else ():
        below = base.copy()
        below[-1, 0] = value  # inf * 0 is NaN above the diagonal
        out.append(below)
    return out


@pytest.mark.parametrize("order", ORDERS)
def test_triangular_inverse_matches_full_substitution(order):
    for low in factors(order):
        want = outcome(frozen_lower_triangular_inverse, low)
        assert outcome(lower_triangular_inverse, low) == want
        assert outcome(factor.forward_substitute, low, np.eye(order)) == want


def test_triangular_inverse_keeps_the_signs_of_the_full_loop():
    # a negative pivot leaves -0.0 above the diagonal; a loop that skipped
    # the columns right of the diagonal would leave +0.0 there
    low = np.array([[-2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, 0.25, 4.0]])
    got = lower_triangular_inverse(low)
    assert np.signbit(got[0, 1]) and np.signbit(got[0, 2])
    assert outcome(lower_triangular_inverse, low) == outcome(frozen_lower_triangular_inverse, low)
    with pytest.raises(DimensionError, match="must be square"):
        lower_triangular_inverse(np.ones((2, 3)))


@pytest.mark.parametrize("order", ORDERS)
def test_pdp_assemble_matches_the_spd_inverse_form(order):
    r = standard_normal_matrix(order, 77 + order)
    g = matmul(r, np.ascontiguousarray(r.T)) + order * np.eye(order)
    h = 0.5 * (r + r.T)
    got = pdp_assemble(g, h)
    want = frozen_pdp_assemble(g, h)
    assert got.n == want.n
    for block in ("a11", "a12", "a22"):
        assert getattr(got, block).tobytes() == getattr(want, block).tobytes(), block


@pytest.mark.parametrize("n", list(range(1, 41)) + [63, 64, 65, 100, 129])
def test_random_pdp_caches_its_leading_block_factors(n):
    p = random_pdp(n, 4000 + n)
    assert p.assemble().tobytes() == frozen_random_pdp(n, 4000 + n).assemble().tobytes()
    # the generator leaves chol(g), its inverse transpose and inv(g) cached,
    # and nothing else: no cached value read a22 before it was filled in
    cached = vars(p)
    assert set(cached) - {"n", "a11", "a12", "a22"} == {"l11", "l11_inv_t", "inv_a11"}
    fresh = BlockPartition.from_matrix(p.assemble())
    for name in ("l11", "l11_inv_t", "inv_a11"):
        assert cached[name].tobytes() == getattr(fresh, name).tobytes(), name
        assert not cached[name].flags.writeable, name
    # both factors belong to the partition and hand out its very own arrays
    assert p.w1.p is p and p.w2.p is p
    assert p.w1.l22 is p.l11_inv_t
    for f, g in ((p.w1, fresh.w1), (p.w2, fresh.w2)):
        assert f.assemble().tobytes() == g.assemble().tobytes()
        assert f.residual().tobytes() == g.residual().tobytes()


def test_pdp_assemble_of_a_non_spd_block_names_the_leading_block():
    with pytest.raises(PivotNotPositiveError, match="leading-block cholesky") as err:
        pdp_assemble(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    assert err.value.index == 2
