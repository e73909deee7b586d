"""matmul's einsum route and the import-time probe that guards it.

``dense._einsum_is_exact`` compares ``np.einsum`` with the plain loop on
crafted inputs.  Each stand-in below replaces ``np.einsum`` with a
product that differs from the loop in one way a numpy build could: the
order of the k terms, a fused multiply-add, or the start of the sum.
The probe must reject every one of them, and accept the loop itself.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from sympllt import dense

REAL_EINSUM = np.einsum


def simd_baseline():
    try:
        return np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"


def test_matmul_takes_the_einsum_path(monkeypatch):
    if not dense._EINSUM_EXACT:
        pytest.skip(f"the probe rejected einsum on numpy {np.__version__} with SIMD baseline "
                    f"{simd_baseline()}: every product takes the plain loop")
    calls = []
    monkeypatch.setattr(np, "einsum", counting(calls, REAL_EINSUM))
    dense.matmul(np.ones((3, 4)), np.ones((4, 2)))
    assert len(calls) == 1


def counting(calls, product):
    """An einsum stand-in that logs each call's arguments and returns ``product``'s result."""
    def einsum(*args, **kwargs):
        calls.append(args)
        return product(*args, **kwargs)
    return einsum


def summed_in(order_of):
    """An einsum stand-in adding the k terms in the order ``order_of(inner)`` from +0.0."""
    def product(subscripts, a, b, optimize):
        out = np.zeros((a.shape[0], b.shape[1]))
        for k in order_of(a.shape[1]):
            out += a[:, k : k + 1] * b[k : k + 1, :]
        return out
    return product


def fused(subscripts, a, b, optimize):
    """Each update a[i, k] b[k, j] + sum rounded once, emulated exactly."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return REAL_EINSUM(subscripts, a, b, optimize=optimize)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, j in np.ndindex(out.shape):
        total = 0.0
        for k in range(a.shape[1]):
            total = float(Fraction(total) + Fraction(a[i, k]) * Fraction(b[k, j]))
        out[i, j] = total
    return out


def started_at_the_first_product(subscripts, a, b, optimize):
    """The sum starts at the first product rather than at +0.0 plus it."""
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]))
    out = a[:, :1] * b[:1, :]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def pairwise(subscripts, a, b, optimize):
    """Halves summed separately and then added, as a vectorised reduction does."""
    def total(ks):
        if len(ks) <= 1:
            return summed_in(lambda _: ks)(subscripts, a, b, optimize)
        return total(ks[: len(ks) // 2]) + total(ks[len(ks) // 2:])
    return total(list(range(a.shape[1])))


def probe_with(monkeypatch, einsum):
    monkeypatch.setattr(np, "einsum", einsum)
    return dense._einsum_is_exact()


def test_the_probe_accepts_the_plain_loop(monkeypatch):
    assert probe_with(monkeypatch, summed_in(range))


@pytest.mark.parametrize("stand_in", [
    summed_in(lambda inner: reversed(range(inner))), fused, started_at_the_first_product, pairwise,
], ids=["descending", "fused", "no-zero-start", "pairwise"])
def test_the_probe_rejects(monkeypatch, stand_in):
    assert not probe_with(monkeypatch, stand_in)


def test_the_probe_rejects_every_other_order_of_five_terms(monkeypatch):
    # 0 + t0 + t1 is t0 + t1 in either order: a swap of the first two is no change
    same = {(0, 1, 2, 3, 4), (1, 0, 2, 3, 4)}
    for perm in itertools.permutations(range(5)):
        order = summed_in(lambda inner, perm=perm: perm if inner == 5 else range(inner))
        assert probe_with(monkeypatch, order) == (perm in same), perm


@pytest.mark.parametrize("exact", [True, False])
def test_one_column_products_take_the_plain_loop(monkeypatch, exact):
    calls = []
    monkeypatch.setattr(dense, "_EINSUM_EXACT", exact)
    monkeypatch.setattr(np, "einsum", counting(calls, summed_in(range)))
    a = np.arange(12.0).reshape(3, 4)
    dense.matmul(a, np.ones((4, 1)))
    dense.matmul(np.ones((1, 3)), a)
    assert len(calls) == (1 if exact else 0)


def test_a_nan_result_is_recomputed_in_the_plain_loop(monkeypatch):
    monkeypatch.setattr(dense, "_EINSUM_EXACT", True)
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: np.full((2, 2), np.nan))
    got = dense.matmul(np.eye(2), np.eye(2))
    assert np.array_equal(got.view(np.uint64), np.eye(2).view(np.uint64))
