"""SplitMix64.normals against a frozen copy of the scalar generator.

The block generator computes a whole run of SplitMix64 words with numpy
uint64 arithmetic; its normals must be bitwise those of the scalar
Box-Muller loop, and it must leave the stream state where the loop left
it.  Values are compared as uint64 views, so -0.0 vs +0.0 counts.
"""

import numpy as np
import pytest

from sympllt.testmat import SplitMix64, standard_normal_matrix

from frozen import GOLDEN, MASK, MUL1, MUL2, FrozenSplitMix64
from support import float_bits


def _unshift(y, s):
    """Inverse of x -> x ^ (x >> s) on 64-bit words."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def unmix(word):
    """The state whose SplitMix64 output is ``word``."""
    z = _unshift(word, 31)
    z = (z * pow(MUL2, -1, 1 << 64)) & MASK
    z = _unshift(z, 27)
    z = (z * pow(MUL1, -1, 1 << 64)) & MASK
    return _unshift(z, 30)


def seed_with_small_word(step, word):
    """A seed whose ``step``-th output (1-based) is ``word``."""
    return (unmix(word) - step * GOLDEN) & MASK


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 40001])
def test_normals_match_scalar_loop(seed, count):
    got, want = SplitMix64(seed), FrozenSplitMix64(seed)
    values = got.normals(count)
    assert isinstance(values, np.ndarray)
    assert values.dtype == np.float64 and values.shape == (count,)
    assert float_bits(values) == float_bits(want.normals(count))
    assert got.state == want.state


def test_back_to_back_calls_continue_the_stream():
    got, want = SplitMix64(23), FrozenSplitMix64(23)
    for count in (16, 8, 7, 1, 0, 5):
        assert float_bits(got.normals(count)) == float_bits(want.normals(count))
        assert got.state == want.state
        assert got.next_u64() == want.next_u64()
    assert float_bits(got.normal_pair()) == float_bits(want.normal_pair())
    assert got.uniform() == want.uniform()


def test_unmix_inverts_the_finaliser():
    for word in (0, 1, 2047, 0x0123456789ABCDEF, MASK):
        rng = FrozenSplitMix64((unmix(word) - GOLDEN) & MASK)
        assert rng.next_u64() == word


@pytest.mark.parametrize("pair,count", [(0, 6), (3, 10), (3, 7), (4, 9)])
def test_zero_first_uniform_is_redrawn(pair, count):
    # the first word of the pair-th pair is below 2^11, so its uniform is 0.0
    seed = seed_with_small_word(2 * pair + 1, 5)
    want = FrozenSplitMix64(seed)
    for _ in range(2 * pair):
        want.uniform()
    assert want.uniform() == 0.0
    want = FrozenSplitMix64(seed)
    expected = want.normals(count)
    # the redraw consumed one extra word
    assert want.state == (seed + (2 * ((count + 1) // 2) + 1) * GOLDEN) & MASK
    got = SplitMix64(seed)
    assert float_bits(got.normals(count)) == float_bits(expected)
    assert got.state == want.state
    assert got.next_u64() == want.next_u64()


def test_zero_second_uniform_needs_no_redraw():
    seed = seed_with_small_word(4, 0)
    got, want = SplitMix64(seed), FrozenSplitMix64(seed)
    values = got.normals(6)
    assert float_bits(values) == float_bits(want.normals(6))
    assert values[3] == 0.0  # r * sin(0)
    assert got.state == want.state == (seed + 6 * GOLDEN) & MASK


@pytest.mark.parametrize("n", [1, 5, 40, 200])
def test_standard_normal_matrix_unchanged(n):
    want = FrozenSplitMix64(n).normals(n * n)
    got = standard_normal_matrix(n, n)
    assert float_bits(got.ravel(order="F")) == float_bits(want)
