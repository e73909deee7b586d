import math
from fractions import Fraction

import numpy as np
import pytest

from sympllt import (
    DomainError,
    PivotNotPositiveError,
    cholesky_lower,
    condition_number,
    loss_of_symplecticity,
    matmul,
    spectral_norm,
)
from sympllt.checks import check_w2_backward
from sympllt.dense import EPS
from sympllt.factor import spd_inverse
from sympllt import testmat
from sympllt.testmat import (
    RANDOM_MAX_N,
    SplitMix64,
    diag_family,
    minij,
    pascal_symplectic,
    pdp_assemble,
    random_pdp,
    standard_normal_matrix,
    symmetric_perturbation,
    hyperbolic_s,
    hyperbolic_spd,
    hyperbolic_spd_inverse,
)


def taylor_cosh_sinh_oracle(x, terms=30):
    """Series oracle in exact rationals, evaluated well past double precision."""
    num = Fraction(x).limit_denominator(10**15) if not isinstance(x, int) else Fraction(x)
    ch = sum(num ** (2 * k) / Fraction(math.factorial(2 * k)) for k in range(terms))
    sh = sum(num ** (2 * k + 1) / Fraction(math.factorial(2 * k + 1)) for k in range(terms))
    return float(ch), float(sh)


def test_minij_is_spd_but_not_structure_preserving():
    a = minij()
    cholesky_lower(a)  # succeeds
    assert loss_of_symplecticity(a) > 0.5
    assert np.array_equal(cholesky_lower(a), np.tril(np.ones((4, 4))))


def test_hyperbolic_s_theta_zero_is_identity():
    assert np.array_equal(hyperbolic_s(0.0), np.eye(4))
    assert np.array_equal(hyperbolic_spd(0.0), np.eye(4))


def test_hyperbolic_s_near_symplectic():
    s = hyperbolic_s(3.0)
    assert loss_of_symplecticity(s) <= 200 * EPS * spectral_norm(s) ** 2


def test_hyperbolic_s_entries_match_series_oracle():
    ch, sh = taylor_cosh_sinh_oracle(3)
    s = hyperbolic_s(3.0)
    assert s[0, 0] == pytest.approx(ch, rel=1e-15)
    assert s[0, 1] == pytest.approx(sh, rel=1e-15)


def test_hyperbolic_s_rejects_nonfinite_theta():
    with pytest.raises(DomainError):
        hyperbolic_s(math.inf)


def test_hyperbolic_spd_reference_values():
    assert spectral_norm(hyperbolic_spd(3.0)) == pytest.approx(5.0379e02, rel=1e-3)
    p11 = hyperbolic_spd(6.0)[:2, :2]
    assert condition_number(p11) == pytest.approx(2.6489e10, rel=1e-2)


def test_hyperbolic_spd_inverse_values():
    assert np.array_equal(hyperbolic_spd_inverse(0.0), np.eye(4))
    a11 = hyperbolic_spd_inverse(3.0)[:2, :2]
    assert condition_number(a11) == pytest.approx(5.0198, rel=1e-2)
    prod = matmul(hyperbolic_spd_inverse(3.0), hyperbolic_spd(3.0))
    assert np.max(np.abs(prod - np.eye(4))) <= 1e-9


def test_hyperbolic_families_share_condition_number():
    for theta in (3.0, 4.0, 6.0, 7.0):
        ka = condition_number(hyperbolic_spd(theta))
        kb = condition_number(hyperbolic_spd_inverse(theta))
        assert kb == pytest.approx(ka, rel=1e-2)


def test_pascal_small_case_against_binomial_oracle():
    p = pascal_symplectic(2)
    assert np.array_equal(p.a11, np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert np.array_equal(p.a22, 2.0 * np.array([[1.0, -1.0], [-1.0, 2.0]]))
    # exact rational inverse oracle
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    ginv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]
    assert np.array_equal(
        p.a22, 2.0 * np.array([[float(v) for v in row] for row in ginv])
    )


def test_pascal_inverse_is_exact_for_all_sizes():
    for n in range(1, 17):
        p = pascal_symplectic(n)
        prod = matmul(p.a11, p.a22) / 2.0
        assert np.array_equal(prod, np.eye(n))


def test_pascal_structure_loss_exactly_zero():
    for n in (2, 6, 12, 16):
        assert loss_of_symplecticity(pascal_symplectic(n).assemble()) == 0.0


def test_pascal_norm_reference_value():
    assert spectral_norm(pascal_symplectic(6).assemble()) == pytest.approx(
        6.6569e02, rel=1e-3
    )


def test_pascal_bounds():
    with pytest.raises(DomainError):
        pascal_symplectic(0)
    with pytest.raises(DomainError):
        pascal_symplectic(17)


def test_diag_family_theta_zero_power_of_two():
    a, ahat = diag_family(2.0 ** 20, 0.0)
    assert np.array_equal(a, ahat)
    assert loss_of_symplecticity(a) == 0.0


def test_diag_family_structure_loss_value():
    _, ahat = diag_family(1e6, 1e-10)
    assert loss_of_symplecticity(ahat) == pytest.approx(2e-4, rel=1e-6)


def test_diag_family_condition_bounds():
    a, _ = diag_family(1e6, 1e-10)
    # factor-route condition number: accurate to ~eps*sqrt(kappa)
    kappa = spectral_norm(a) * spectral_norm(spd_inverse(a))
    assert 4e12 * (1 - 1e-8) <= kappa <= (2e6 + 1) ** 2 * (1 + 1e-8)


def test_diag_family_domain():
    with pytest.raises(DomainError):
        diag_family(0.5, 0.0)
    with pytest.raises(DomainError):
        diag_family(2.0, -1.0)


def test_pdp_assemble_identity():
    p = pdp_assemble(np.eye(3), np.zeros((3, 3)))
    assert np.array_equal(p.assemble(), np.eye(6))


def test_pdp_assemble_with_h_equal_g_inverse():
    g = pascal_symplectic(4).a11
    p = pdp_assemble(g, spd_inverse(g))
    ref = pascal_symplectic(4).assemble()
    assert np.max(np.abs(p.assemble() - ref)) <= 1e-12 * spectral_norm(ref)


def test_pdp_assemble_random_is_spd_and_near_symplectic():
    r = standard_normal_matrix(6, 31)
    g = matmul(r, np.ascontiguousarray(r.T)) + 1e-3 * np.eye(6)
    h = 0.5 * (r + r.T)
    p = pdp_assemble(g, h)
    a = p.assemble()
    cholesky_lower(a)  # SPD
    assert loss_of_symplecticity(a) <= 1e-8 * spectral_norm(a) ** 2


def test_pdp_assemble_requires_spd_g():
    with pytest.raises(PivotNotPositiveError):
        pdp_assemble(-np.eye(2), np.zeros((2, 2)))


def test_random_pdp_deterministic():
    a = random_pdp(5, 42).assemble()
    b = random_pdp(5, 42).assemble()
    assert np.array_equal(a, b)
    c = random_pdp(5, 43).assemble()
    assert not np.array_equal(a, c)


def test_random_pdp_spd_and_stable():
    p = random_pdp(20, 1)
    cholesky_lower(p.assemble())  # succeeds
    assert check_w2_backward(p).holds


@pytest.mark.parametrize("n", [0, -3, RANDOM_MAX_N + 1, 10**6])
def test_random_pdp_checks_n_before_generating(monkeypatch, n):
    def generate(*args):
        raise AssertionError("generated before the range check")

    monkeypatch.setattr(testmat, "standard_normal_matrix", generate)
    with pytest.raises(DomainError, match=f"n must be in 1..{RANDOM_MAX_N}, got {n}"):
        random_pdp(n, 1)


def test_every_family_is_bitwise_symmetric():
    mats = [
        minij(),
        hyperbolic_spd(5.0),
        hyperbolic_spd_inverse(5.0),
        pascal_symplectic(7).assemble(),
        diag_family(1e4, 1e-9)[1],
        random_pdp(8, 2).assemble(),
    ]
    for a in mats:
        assert np.array_equal(a, a.T)


def test_splitmix64_stream_is_stable():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    # published reference values for the seed-0 SplitMix64 stream
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_uniform_in_unit_interval():
    rng = SplitMix64(7)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_normals_fill_column_major():
    rng = SplitMix64(5)
    flat = rng.normals(9)
    m = standard_normal_matrix(3, 5)
    assert np.array_equal(m, np.array(flat).reshape((3, 3), order="F"))


def test_normals_look_normal():
    vals = np.array(SplitMix64(123).normals(20000))
    assert abs(float(np.mean(vals))) < 0.03
    assert abs(float(np.std(vals)) - 1.0) < 0.03


def test_symmetric_perturbation_norm_and_symmetry():
    e = symmetric_perturbation(6, 2.5e-7, 9)
    assert np.array_equal(e, e.T)
    assert spectral_norm(e) == pytest.approx(2.5e-7, rel=1e-12)


NOT_INTEGERS = [0.5, 3.0, True, np.float64(2.0), "3"]


@pytest.mark.parametrize("seed", NOT_INTEGERS)
def test_splitmix64_takes_an_integer_seed_only(seed):
    with pytest.raises(DomainError, match="SplitMix64: seed must be an integer"):
        SplitMix64(seed)
    assert SplitMix64(np.uint64(7)).next_u64() == SplitMix64(7).next_u64()


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_random_pdp_takes_an_integer_n_and_seed_only(bad):
    with pytest.raises(DomainError, match=r"random_pdp: n must be in 1\.\."):
        random_pdp(bad, 1)
    with pytest.raises(DomainError, match="seed must be an integer"):
        random_pdp(3, bad)
    assert np.array_equal(random_pdp(np.int64(3), np.int32(1)).assemble().view(np.uint64),
                          random_pdp(3, 1).assemble().view(np.uint64))


@pytest.mark.parametrize("n", NOT_INTEGERS)
def test_pascal_symplectic_takes_an_integer_n_only(n):
    with pytest.raises(DomainError, match=r"pascal_symplectic: n must be in 1\.\."):
        pascal_symplectic(n)
    assert np.array_equal(pascal_symplectic(np.int8(4)).assemble(),
                          pascal_symplectic(4).assemble())


@pytest.mark.parametrize("bad", NOT_INTEGERS)
def test_symmetric_perturbation_takes_an_integer_order_and_seed_only(bad):
    with pytest.raises(DomainError, match="symmetric_perturbation: order must be an integer"):
        symmetric_perturbation(bad, 1.0, 2)
    with pytest.raises(DomainError, match="seed must be an integer"):
        symmetric_perturbation(4, 1.0, bad)
