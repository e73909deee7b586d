"""Memory gates of the ``diagnose --in`` path, and the bits of the in-place fills.

Peaks are measured with tracemalloc, which counts numpy's array buffers
but not LAPACK's own workspaces, so they bound what the Python side
holds.  ``omega`` and ``BlockFactor.omega`` subtract J in place, and every
2n x 2n matrix is filled from its four blocks by one helper; each is
compared as uint64 views with the frozen copy of the block-by-block fill
it replaced, on results holding -0.0, NaN and infinities.  These tests also
run with matmul's plain loop forced, in ``test_plain_loop_path.py``.
"""

import tracemalloc

import numpy as np
import pytest

from sympllt import diagnostics, read_matrix, workers, write_matrix
from sympllt.symplectic import (BlockFactor, BlockPartition, _structure_inverse,
                                _subtract_structure, assemble_omega_blocks, omega,
                                structure_matrix)
from sympllt.testmat import random_pdp, standard_normal_matrix

from frozen import (frozen_assemble_omega_blocks, frozen_block_fill_residual,
                    frozen_factor_assemble, frozen_factor_omega, frozen_omega,
                    frozen_partition_assemble, frozen_structure_inverse, frozen_structure_matrix)
from support import assert_same_bits, forkable, row_fields, set_cpus


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw allocated during fn(*args))."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_matrix_peaks_below_two_and_a_half_matrices(tmp_path):
    a = standard_normal_matrix(400, 5)
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    got, peak = traced_peak(read_matrix, path)
    assert np.array_equal(got.view(np.uint64), a.view(np.uint64))
    assert peak < 2.5 * a.nbytes, peak / a.nbytes


def held_arrays(obj):
    """Every ndarray reachable from obj through instance dicts, containers,
    closures and array bases (not through modules or classes)."""
    found, seen, stack = [], set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found.append(x)
            stack.append(x.base)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif callable(x) and hasattr(x, "__closure__"):
            stack.extend(cell.cell_contents for cell in x.__closure__ or ())
        elif hasattr(x, "__dict__") and not isinstance(x, type):
            stack.append(vars(x))
    return found


def test_partition_and_diagnose_peak_below_five_and_a_quarter_matrices(monkeypatch):
    # 5.76 order-2n matrices before the 2n x 2n fills took their blocks as arguments
    a = random_pdp(200, 1).assemble()
    run = lambda: traced_peak(lambda: diagnostics.diagnose(BlockPartition.from_matrix(a)))
    set_cpus(monkeypatch, 1)  # the whole row in this process, where tracemalloc sees it
    row, peak = run()
    assert row.ok
    assert peak < 5.25 * a.nbytes, peak / a.nbytes
    # split, the row is the same and this process's share peaks no higher
    set_cpus(monkeypatch, 2)
    forkable(monkeypatch)
    assert workers._fork_cpus() > 1 and a.shape[0] // 2 >= diagnostics._SPLIT_MIN_N
    split_row, split_peak = run()
    assert row_fields(split_row) == row_fields(row)
    assert split_peak <= peak, (split_peak / a.nbytes, peak / a.nbytes)


def test_partition_holds_no_full_order_array_after_diagnose():
    n = 20
    p = BlockPartition.from_matrix(random_pdp(n, 3).assemble())
    row = diagnostics.diagnose(p, "file", 0.0)
    assert row.ok and np.isfinite(row.kappa2_A)
    held = held_arrays(p)
    assert any(x.shape == (n, n) for x in held)  # the walk reaches the cached blocks
    assert [x.shape for x in held if x.shape == (2 * n, 2 * n)] == []


def special_matrix(rows, cols, seed, specials=(0.0, -0.0, np.nan, np.inf, -np.inf)):
    """Normals, a third of them +0.0, with each of ``specials`` at a few places."""
    a = standard_normal_matrix(max(rows, cols), seed)[:rows, :cols].copy()
    flat = a.reshape(-1)
    flat[::3] = 0.0
    for k, value in enumerate(specials):
        flat[(seed + 5 * k) % flat.size :: 2 * flat.size // 3 + 1] = value
    return a


def omega_inputs():
    n = 4
    sym = special_matrix(2 * n, 2 * n, 11)
    sym = np.triu(sym) + np.triu(sym, 1).T
    zeros = special_matrix(2 * n, 2 * n, 12, specials=(-0.0, -0.0, 0.0))
    sym_zeros = np.triu(zeros) + np.triu(zeros, 1).T
    # equal under ==, not bit for bit: -0.0 and +0.0 trade places across the diagonal
    signed = sym_zeros.copy()
    signed[0, 1], signed[1, 0] = 0.0, -0.0
    return {
        "symmetric": sym,
        "general": special_matrix(2 * n, 2 * n, 13),
        "zeros-symmetric": sym_zeros,
        "zeros-general": zeros,
        "signed-zero-mirror": signed,
        "identity": np.eye(2 * n),
        "negative-identity": -np.eye(2 * n),
        "all-minus-zero": np.full((2 * n, 2 * n), -0.0),
    }


@pytest.mark.parametrize("name", list(omega_inputs()))
def test_omega_in_place_matches_frozen_bits(name):
    a = omega_inputs()[name]
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = omega(a), frozen_omega(a)
    assert_same_bits(got, want)


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_factor_omega_in_place_matches_frozen_bits(seed):
    n = 5
    p = BlockPartition(n=n, a11=np.eye(n), a12=np.zeros((n, n)), a22=np.eye(n))
    # the factor blocks set directly, so the products hold the special values
    vars(p).update(l11=np.tril(special_matrix(n, n, seed, specials=(0.0, -0.0))),
                   l21=special_matrix(n, n, seed + 100, specials=(np.inf,)))
    l22 = np.triu(special_matrix(n, n, seed + 200, specials=(np.nan, -np.inf)))
    f = BlockFactor(p, l22, "w2")
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = f.omega(), frozen_factor_omega(f)
    assert_same_bits(got, want)
    assert np.isnan(want).any() and np.isinf(want).any() and np.isfinite(want).any()


def special_factor(seed, n=5):
    """A factor whose partition and factor blocks hold -0.0, NaN and infinities,
    built directly because from_matrix refuses a non-finite matrix."""
    p = BlockPartition(n=n, a11=special_matrix(n, n, seed),
                       a12=special_matrix(n, n, seed + 1), a22=special_matrix(n, n, seed + 2))
    l11 = np.tril(special_matrix(n, n, seed + 3, specials=()))
    l22 = np.triu(special_matrix(n, n, seed + 5, specials=()))
    # inside the triangles that tril and triu keep
    l11[n - 1, 0], l22[0, n - 1], l22[1, 1], l22[2, 3] = -0.0, np.nan, -np.inf, -0.0
    vars(p).update(l11=l11, l21=special_matrix(n, n, seed + 4, specials=(np.inf, -0.0)))
    return BlockFactor(p, l22, "w2")


BLOCK_FILLS = {
    "partition-assemble": (lambda f: f.p.assemble(), lambda f: frozen_partition_assemble(f.p)),
    "factor-assemble": (BlockFactor.assemble, frozen_factor_assemble),
    "residual": (BlockFactor.residual, frozen_block_fill_residual),
}


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("name", list(BLOCK_FILLS))
def test_block_fill_matches_frozen_bits(name, seed):
    fill, frozen = BLOCK_FILLS[name]
    # each from a fresh factor, so neither reads a block cached by the other
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = fill(special_factor(seed)), frozen(special_factor(seed))
    assert_same_bits(got, want)
    assert np.isnan(want).any() and np.isinf(want).any()


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_assemble_omega_blocks_matches_frozen_bits(seed):
    n = 4
    blocks = [special_matrix(n, n, seed + 10 * k) for k in range(3)]
    got, want = assemble_omega_blocks(*blocks), frozen_assemble_omega_blocks(*blocks)
    assert_same_bits(got, want)
    assert np.isnan(want).any() and np.isinf(want).any() and (np.signbit(want) & (want == 0)).any()


@pytest.mark.parametrize("name", list(omega_inputs()))
def test_structure_inverse_matches_frozen_bits(name):
    a = omega_inputs()[name]
    got, want = _structure_inverse(a), frozen_structure_inverse(a)
    assert_same_bits(got, want)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_structure_matrix_matches_frozen_bits(n):
    # the (2,1) block's off-diagonal zeros are -0.0
    assert_same_bits(structure_matrix(n), frozen_structure_matrix(n))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_subtract_structure_is_minus_j_bitwise(n):
    # matmul never returns -0.0, so the (2,1) block's -0.0 - (-0.0) = +0.0 is shown here
    x = special_matrix(2 * n, 2 * n, 31 + n)
    x[n:, :n] = -0.0
    x[n, 0] = np.nan
    with np.errstate(invalid="ignore"):
        want = x - frozen_structure_matrix(n)
    got = _subtract_structure(x.copy())
    assert_same_bits(got, want)
