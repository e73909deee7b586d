"""The triangular kernels and the random family's generator against frozen
copies of their plain forms.

``pdp_assemble`` takes inv(g) from the partition's own leading-block
factor instead of ``spd_inverse``, and ``cholesky_lower`` and
``lower_triangular_inverse`` are the kernels every factor is built from.
A change to any of them may not change a bit of any result, so results
are compared as uint64 views (-0.0 vs +0.0 and NaN payloads count), and
so are exceptions with their pivot and value.
"""

import numpy as np
import pytest

from sympllt import factor
from sympllt.dense import matmul
from sympllt.errors import DimensionError, PivotNotPositiveError, SympLLTError
from sympllt.factor import cholesky_lower, lower_triangular_inverse
from sympllt.symplectic import BlockPartition
from sympllt.testmat import pdp_assemble, random_pdp, standard_normal_matrix

from frozen import (frozen_cholesky_lower, frozen_lower_triangular_inverse, frozen_pdp_assemble,
                    frozen_random_pdp)

ORDERS = list(range(1, 41)) + [63, 64, 65, 100, 129, 200, 257]


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


@pytest.mark.parametrize("order", [1, 2, 5, 40, 63, 64, 65, 129])
def test_substitutions_of_transposed_views_match_their_copies(order):
    # the kernels lay out their operands themselves, so callers pass x.T as it is
    rng = np.random.default_rng(2000 + order)
    rhs = rng.standard_normal((3, order))
    rhs[:, ::3] = -0.0
    for low in factors(order):
        upper = np.ascontiguousarray(low.T)
        for tri, solve in ((upper.T, factor.forward_substitute), (low.T, factor.upper_substitute)):
            for b in (rhs.T, rhs[:1].T):
                want = outcome(solve, np.ascontiguousarray(tri), np.ascontiguousarray(b))
                assert outcome(solve, tri, b) == want
    # the partition's solve reads transposes of its read-only cached factors
    p = random_pdp(order, 5000 + order)
    want = factor.upper_substitute(np.ascontiguousarray(p.l11.T), np.ascontiguousarray(p.l21.T))
    assert p.coupling.tobytes() == want.tobytes()


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
