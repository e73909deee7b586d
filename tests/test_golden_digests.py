"""Golden digests of the fixed-order kernels: the determinism contract as
committed constants.

Each constant is the sha256 of the float64 bytes (with the shapes) of one
kernel's results over a fixed set of inputs.  A change to a kernel that
moves any bit of any result, -0.0 against +0.0 included, changes its
digest.  The inputs are built only from ``SplitMix64.uniform()`` words
(integer arithmetic and an exact scaling) and from the integer Pascal
family, and the kernels use only IEEE-rounded operations (+, -, *, /,
sqrt), never libm's transcendental functions or LAPACK, so the constants
hold on every IEEE-754 host.  The products cover both of ``matmul``'s
paths: one output column (always the plain loop) and two or more (the
einsum loop where the import-time probe accepts it), with widths that
reach einsum's unrolled vector loop and its tail.  The same tests run
with the plain loop forced in ``test_plain_loop_path.py``.
"""

from functools import lru_cache

import numpy as np
import pytest

from sympllt.dense import matmul
from sympllt.factor import (cholesky_lower, forward_substitute, lower_triangular_inverse,
                            reverse_cholesky_upper)
from sympllt.symplectic import BlockPartition
from sympllt.testmat import SplitMix64, pascal_symplectic

from support import digest

ORDERS = (5, 63, 65, 130, 257)
PASCAL_SIZES = (2, 6, 12)
HALF_ORDERS = (3, 32, 33, 65, 129)


def uniform_matrix(rows, cols, seed):
    """Entries u - 0.5 for successive uniforms u, row by row; exact in binary64.
    Each call gets its own copy, which it may change, of the one matrix built
    per (rows, cols, seed), so the plain-loop rerun builds none again."""
    return _uniform_matrix(rows, cols, seed).copy()


@lru_cache(maxsize=None)
def _uniform_matrix(rows, cols, seed):
    rng = SplitMix64(seed)
    return np.array([rng.uniform() - 0.5 for _ in range(rows * cols)]).reshape(rows, cols)


@lru_cache(maxsize=None)
def spd(order):
    b = uniform_matrix(order, order, order)
    return matmul(b, np.ascontiguousarray(b.T)) + order * np.eye(order)


@lru_cache(maxsize=None)
def chol(order):
    return cholesky_lower(spd(order))


def partitions():
    out = [pascal_symplectic(n) for n in PASCAL_SIZES]
    return out + [BlockPartition.from_matrix(spd(2 * n)) for n in HALF_ORDERS]


def products():
    a63, a65 = uniform_matrix(40, 63, 1), uniform_matrix(70, 65, 2)
    b63, b65 = uniform_matrix(63, 50, 3), uniform_matrix(65, 80, 4)
    tall = uniform_matrix(257, 70, 5)
    low, up = np.tril(uniform_matrix(130, 130, 6)), np.triu(uniform_matrix(130, 130, 7))
    signed = uniform_matrix(70, 70, 8)
    signed[signed < -0.25] = -0.0
    return [matmul(a63, b63), matmul(a65, b65), matmul(tall, np.ascontiguousarray(tall.T)),
            matmul(low, up), matmul(up, low), matmul(signed, signed.T), matmul(low, low.T)]


def concatenated_products():
    """Products over a concatenated inner dimension, and one- and two-column products."""
    a, b = uniform_matrix(66, 65, 9), uniform_matrix(65, 66, 10)
    c, d = uniform_matrix(66, 70, 11), uniform_matrix(70, 66, 12)
    twice = np.hstack([uniform_matrix(257, 65, 13)] * 2)
    return [matmul(np.hstack([a, c]), np.vstack([b, d])),
            matmul(twice, np.ascontiguousarray(twice.T)),
            matmul(c, uniform_matrix(70, 1, 14)), matmul(c, uniform_matrix(70, 2, 15)),
            matmul(uniform_matrix(1, 70, 16), d)]


CASES = {
    "cholesky_lower": lambda: [chol(n) for n in ORDERS],
    "reverse_cholesky_upper": lambda: [reverse_cholesky_upper(spd(n)) for n in ORDERS],
    "lower_triangular_inverse": lambda: [lower_triangular_inverse(chol(n)) for n in ORDERS],
    "forward_substitute": lambda: [forward_substitute(chol(n), uniform_matrix(n, 7, 100 + n))
                                   for n in ORDERS],
    "matmul": products,
    "matmul_concatenated": concatenated_products,
    "block_factors": lambda: [f.assemble() for p in partitions() for f in (p.w1, p.w2)],
    "residual_omega": lambda: [m for p in partitions() for f in (p.w1, p.w2)
                               for m in (f.residual(), f.omega())],
    "schur_drift": lambda: [m for p in partitions() for m in (p.schur, p.drift)],
}

GOLDEN = {
    "block_factors": "cc35ed9026d88bf4c462e40fac0a35e78bd83297e263ef460da25caff67f96ec",
    "cholesky_lower": "fa5669027023d551a90185e0e9cc5244f232b28b552abd7852c4f066dd6d8e2b",
    "forward_substitute": "36c98357b7927615c8d62250887311f255b8310f69a659d20c81864b18f422a7",
    "lower_triangular_inverse": "3484016b3adabae63edadbaae5e226218901ef05201bc1b7aa08d642ae086393",
    "matmul": "de4609a5034be91fa5895023efa9879e6d47c5c64ae94aa626797b5b79eb7669",
    "matmul_concatenated": "d683982a738988687a51c27e1442e7760bbfcd8a159c4b430c43009425851c03",
    "residual_omega": "d970922487b01455d038a1d6278047e76b12aad9785bff15ddce55eb060deca4",
    "reverse_cholesky_upper": "a16625cec3c43ae643db93d96dd57852104da406c7badb9f9e0fe8e3a4e7bc0c",
    "schur_drift": "fd6d1553db526dfbc5c067487b41655ccea497bf42b36a3c652f406c59daa87a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_output_bytes_match_the_golden_digest(name):
    assert digest(CASES[name]()) == GOLDEN[name]


def test_orders_straddle_the_kernel_thresholds():
    widths = {m.shape[1] for name in ("matmul", "matmul_concatenated") for m in CASES[name]()}
    # one output column takes the plain loop, two or more take einsum
    assert {1, 2} <= widths
    # einsum's vector loop handles up to 32 doubles per pass, then a tail
    assert any(w > 32 and w % 32 for w in widths)
