"""dense.matmul against a frozen copy of the plain fixed-order loop.

matmul runs products of two or more output columns in numpy's einsum
loop when the import-time probe accepts it, and everything else in the
plain loop; either must give every bit of the frozen loop's result.
Results are compared as uint64 views, so -0.0 vs +0.0 and NaN payloads
count.  The same tests run with the plain loop forced in
``test_plain_loop_path.py``.
"""

import numpy as np
import pytest

import sympllt
from sympllt import dense, diagnose, omega, run_checks
from sympllt.dense import as_matrix
from sympllt.errors import DimensionError
from sympllt.symplectic import algorithm_w1, algorithm_w2
from sympllt.testmat import random_pdp

from support import check_fields, rebind, row_fields


def frozen_matmul(a, b):
    """The plain kernel: every term, ascending k, full rank-1 updates from +0.0."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def assert_same_bits(a, b):
    want = frozen_matmul(a, b)
    got = dense.matmul(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def normal(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def masked(shape, seed, density):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * (rng.random(shape) < density)


@pytest.mark.parametrize("m,k,n", [
    (3, 4, 5), (70, 80, 90), (300, 70, 260), (260, 260, 260), (1, 100, 1), (400, 65, 3),
])
def test_dense_products(m, k, n):
    assert_same_bits(normal((m, k), m), normal((k, n), n))


@pytest.mark.parametrize("m,k,n", [(3, 0, 4), (0, 70, 5), (5, 70, 0), (0, 0, 0)])
def test_empty_products(m, k, n):
    assert_same_bits(np.zeros((m, k)), np.zeros((k, n)))


def signed_specials(shape, seed):
    """Normals with -0.0, +0.0, inf, -inf and NaN entries mixed in."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(shape)
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    pick = rng.random(shape) < 0.3
    out[pick] = rng.choice(specials, size=int(pick.sum()))
    return out


def with_negative_zeros(a):
    out = np.array(a)
    out[out == 0.0] = -0.0
    return out


# one output column (the plain loop on every host) against two or more, one
# row, no or one inner term, and inner sizes around 64
EDGE_SHAPES = [(m, k, n) for m in (1, 3) for k in (0, 1, 2) for n in (1, 2, 3)]
EDGE_SHAPES += [(m, k, n) for m in (1, 40) for k in (63, 64, 65) for n in (1, 2, 37)]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("m,k,n", EDGE_SHAPES)
def test_edge_shapes_with_signed_zeros_and_non_finite_entries(m, k, n):
    assert_same_bits(normal((m, k), k), normal((k, n), n))
    a, b = signed_specials((m, k), m * k + n), signed_specials((k, n), m + k * n)
    assert_same_bits(a, b)
    assert_same_bits(with_negative_zeros(np.zeros((m, k))), b)
    assert_same_bits(np.abs(a), np.abs(b))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_nan_meeting_a_nan_keeps_the_loops_bits():
    # the +NaN of row 0 meets the NaN of 0 * inf, which is -NaN on x86: the
    # sum keeps the sign of whichever operand comes first
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[np.nan, np.nan, 1.0], [np.inf, -np.inf, np.inf]])
    assert_same_bits(a, b)
    assert_same_bits(a[::-1].copy(), b)


@pytest.mark.parametrize("k", [63, 64, 65])
@pytest.mark.parametrize("density", [1.0, 0.3])
def test_inner_dimension_around_the_threshold(k, density):
    a = masked((90, k), k, density)
    assert_same_bits(a, masked((k, 300), k + 1, density))
    assert_same_bits(a, a.T)


@pytest.mark.parametrize("order", [80, 300])
def test_zero_masked_inputs(order):
    a = masked((order, order), 1, 0.3)
    b = masked((order, order), 2, 0.3)
    a[:, ::7] = 0.0  # all-zero columns of a
    b[3::5, :] = 0.0  # all-zero rows of b
    assert_same_bits(a, b)
    assert_same_bits(np.tril(a), np.triu(b))
    assert_same_bits(np.triu(a), np.tril(b))
    assert_same_bits(np.zeros((order, order)), b)


@pytest.mark.parametrize("order", [80, 300])
def test_negative_zero_entries(order):
    a = masked((order, order), 3, 0.4)
    a[a == 0.0] = -0.0
    b = masked((order, order), 4, 0.4)
    b[:, ::2][b[:, ::2] == 0.0] = -0.0
    assert_same_bits(a, b)
    assert_same_bits(-np.zeros((order, order)), b)
    # b equals a.T under ==, but its zeros carry the other sign
    flipped = np.ascontiguousarray(a.T)
    flipped[flipped == 0.0] = 0.0
    assert np.array_equal(a, flipped.T)
    assert_same_bits(a, flipped)
    assert_same_bits(a, a.T)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("order", [80, 300])
def test_non_finite_opposite_zeros(bad, order):
    a = masked((order, order), 5, 0.5)
    b = masked((order, order), 6, 0.5)
    b[4, :] = 0.0
    a[:, 4] = 0.0
    a[order // 2, 4] = bad  # meets only zeros of b: 0 * inf is NaN
    assert_same_bits(a, b)
    b[:, 9] = 0.0
    b[9, 0] = bad
    assert_same_bits(a, b)
    assert_same_bits(b, a)
    assert_same_bits(a, a.T)


@pytest.mark.parametrize("order", [80, 255, 256, 257, 300, 400])
def test_gram_of_transpose(order):
    a = masked((order, 150), order, 0.6)
    assert_same_bits(a, a.T)  # a view
    assert_same_bits(a, np.ascontiguousarray(a.T))  # an equal, separate array
    assert_same_bits(a.T, a)
    low = np.tril(normal((order, order), order))
    assert_same_bits(low, low.T)
    assert_same_bits(low.T, low)
    got = dense.matmul(low, low.T)
    assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))


def _j_times(a):
    n = a.shape[0] // 2
    return np.vstack([a[n:, :], -a[:n, :]])


@pytest.mark.parametrize("n", list(range(1, 41)) + [63, 64, 65, 100, 200])
def test_block_factor_products(n):
    p = random_pdp(n, 1000 + n)
    for f in (algorithm_w1(p), algorithm_w2(p)):
        low = f.assemble()
        assert_same_bits(low, low.T)
        assert_same_bits(low.T, _j_times(low))
        assert_same_bits(f.l22, np.ascontiguousarray(f.l22.T))
        w = omega(low)
        assert_same_bits(w.T, w)
    full = p.assemble()
    assert_same_bits(full.T, _j_times(full))
    w = omega(full)
    assert_same_bits(w.T, w)


def use_kernel(monkeypatch, kernel):
    """Bind ``kernel`` as matmul in every sympllt module that bound it."""
    patched = rebind(monkeypatch, dense.matmul, kernel)
    assert {"sympllt", "sympllt.dense", "sympllt.symplectic", "sympllt.checks",
            "sympllt.testmat"} <= set(patched)


@pytest.mark.parametrize("n", [5, 40, 100])
def test_diagnose_rows_identical_with_frozen_kernel(monkeypatch, n):
    current = row_fields(diagnose(random_pdp(n, 7 + n), "random", n))
    use_kernel(monkeypatch, frozen_matmul)
    frozen = row_fields(diagnose(random_pdp(n, 7 + n), "random", n))
    assert current == frozen


def test_run_checks_identical_with_frozen_kernel(monkeypatch):
    current = check_fields(run_checks())
    use_kernel(monkeypatch, frozen_matmul)
    assert sympllt.matmul is frozen_matmul
    assert check_fields(run_checks()) == current
