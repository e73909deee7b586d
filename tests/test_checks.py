import numpy as np
import pytest

from sympllt import (
    BlockPartition,
    check_condition_bounds,
    check_omega_factor_bounds,
    check_schur_perturbation,
    check_w1_error_bound,
    check_w2_backward,
    perturbation_experiment,
    spectral_norm,
)
from sympllt.checks import BoundCheckResult
from sympllt.errors import DimensionError, InvalidEntryError
from sympllt.symplectic import algorithm_w2
from sympllt.testmat import (
    minij,
    pascal_symplectic,
    random_pdp,
    symmetric_perturbation,
    hyperbolic_spd,
)


def identity_partition(n=2):
    return BlockPartition.from_matrix(np.eye(2 * n))


def test_bound_check_verdict_rule():
    assert BoundCheckResult.compare("x", 1.0, 1.0, 0.0, 0.0).holds
    assert not BoundCheckResult.compare("x", 1.0 + 1e-9, 1.0, 0.0, 0.0).holds
    assert BoundCheckResult.compare("x", 1.0 + 1e-9, 1.0, 1e-6, 0.0).holds
    assert BoundCheckResult.compare("x", 1e-9, 0.0, 0.0, 1e-8).holds


def test_w2_backward_minij():
    r = check_w2_backward(BlockPartition.from_matrix(minij()))
    assert r.holds
    assert r.lhs <= 1e-14 * r.rhs or r.lhs <= r.rhs


def test_w2_backward_identity_zero_residual():
    r = check_w2_backward(identity_partition())
    assert r.holds and r.lhs == 0.0


def test_w2_backward_all_hyperbolic_thetas():
    for theta in (3.0, 4.0, 6.0, 7.0):
        r = check_w2_backward(BlockPartition.from_matrix(hyperbolic_spd(theta)))
        assert r.holds, r.describe()


def test_w2_backward_fault_injection_fires():
    p = BlockPartition.from_matrix(hyperbolic_spd(3.0))
    assert check_w2_backward(p).holds
    r = check_w2_backward(p, inject_fault=True)
    assert r.verdict == "violated"


def test_perturbation_experiment_validates_a_once_as_a_partition():
    # a non-finite matrix is invalid before it is asymmetric, as BlockPartition says
    a = minij()
    a[0, 1] = np.nan
    with pytest.raises(InvalidEntryError, match="^BlockPartition: input contains NaN"):
        perturbation_experiment(a, np.zeros((4, 4)), "cholesky")
    a = minij()
    a[0, 1] += 1.0
    with pytest.raises(DimensionError, match="^BlockPartition: asymmetry"):
        perturbation_experiment(a, np.zeros((4, 4)), "cholesky")


def test_w1_error_bound_identity():
    r = check_w1_error_bound(identity_partition())
    assert r.holds and r.lhs == 0.0


def test_w1_error_bound_tam7():
    p = BlockPartition.from_matrix(hyperbolic_spd(7.0))
    r = check_w1_error_bound(p)
    assert r.holds
    relerr = r.lhs / spectral_norm(p.assemble())
    assert 1.2144e-04 / 10 <= relerr <= 1.2144e-04 * 10


def test_w1_error_bound_random():
    r = check_w1_error_bound(random_pdp(20, 12345))
    assert r.holds


def test_omega_factor_bounds_identity():
    for r in check_omega_factor_bounds(identity_partition()):
        assert r.holds


def test_omega_factor_bounds_pascal6():
    results = check_omega_factor_bounds(pascal_symplectic(6))
    assert all(r.verdict in ("holds", "skipped") for r in results)
    assert results[0].holds  # amplification bound: rhs is the floor here
    assert results[0].rhs == 0.0


def test_omega_factor_bounds_tam3():
    results = check_omega_factor_bounds(BlockPartition.from_matrix(hyperbolic_spd(3.0)))
    for r in results:
        assert r.verdict in ("holds", "skipped"), r.describe()
    amp = results[0]
    # omega(L1) ~ 6.9e-13 against inv-norm * omega(A) ~ 5e-9
    assert amp.holds and amp.lhs < amp.rhs


def test_condition_bounds_identity_equalities():
    results = check_condition_bounds(identity_partition())
    assert all(r.holds for r in results)
    eq = [r for r in results if r.bound_id == "condition-factor-squared"][0]
    assert eq.lhs == pytest.approx(1.0, rel=1e-12)


def test_condition_bounds_tam3():
    results = check_condition_bounds(BlockPartition.from_matrix(hyperbolic_spd(3.0)))
    by_id = {r.bound_id: r for r in results}
    r = by_id["condition-from-structure-loss"]
    assert r.holds  # omega(A) ~ 1.26e-11 makes the bound nearly an equality
    assert by_id["condition-factor-squared"].holds
    assert by_id["coupling-norm"].holds


def test_condition_bounds_minij_equality():
    results = check_condition_bounds(BlockPartition.from_matrix(minij()))
    by_id = {r.bound_id: r for r in results}
    assert by_id["condition-factor-squared"].holds


def test_perturbation_zero_e():
    a = minij()
    e = np.zeros_like(a)
    for kind in ("cholesky", "reverse-cholesky", "l2-form"):
        r = perturbation_experiment(a, e, kind)
        assert r.holds and r.lhs == 0.0


def test_perturbation_minij_diagonal():
    r = perturbation_experiment(minij(), 1e-8 * np.eye(4), "cholesky")
    assert r.holds and r.lhs > 0.0


def test_perturbation_l2_form_structure():
    a = pascal_symplectic(6).assemble()
    e = symmetric_perturbation(12, 1e-10 * spectral_norm(a), 77)
    r = perturbation_experiment(a, e, "l2-form")
    assert r.holds
    # the factor difference keeps the block form: zero upper-right block,
    # lower-triangular (1,1), upper-triangular (2,2) -- exactly
    before = algorithm_w2(BlockPartition.from_matrix(a)).assemble()
    after = algorithm_w2(BlockPartition.from_matrix(a + e)).assemble()
    delta = after - before
    n = 6
    assert not delta[:n, n:].any()
    assert np.array_equal(np.triu(delta[:n, :n], 1), np.zeros((n, n)))
    assert np.array_equal(np.tril(delta[n:, n:], -1), np.zeros((n, n)))


def test_perturbation_unknown_kind():
    with pytest.raises(ValueError):
        perturbation_experiment(minij(), np.zeros((4, 4)), "qr")


def test_perturbation_skips_when_too_large():
    a = hyperbolic_spd(7.0)  # kappa ~ 2e12: inverse-scaled perturbation above 1
    e = symmetric_perturbation(4, 1e-8 * spectral_norm(a), 5)
    r = perturbation_experiment(a, e, "cholesky")
    assert r.verdict == "skipped"


def test_schur_perturbation_zero_e():
    p = BlockPartition.from_matrix(minij())
    for r in check_schur_perturbation(p, np.zeros((4, 4))):
        assert r.holds and r.lhs == 0.0


def test_schur_perturbation_tam3():
    p = BlockPartition.from_matrix(hyperbolic_spd(3.0))
    e = symmetric_perturbation(4, 1e-10 * spectral_norm(p.assemble()), 9)
    for r in check_schur_perturbation(p, e):
        assert r.holds, r.describe()


def test_schur_perturbation_pascal8():
    p = pascal_symplectic(8)
    e = symmetric_perturbation(16, 1e-8 * spectral_norm(p.assemble()), 10)
    for r in check_schur_perturbation(p, e):
        assert r.verdict in ("holds", "skipped"), r.describe()


def test_schur_perturbation_skips_large_e():
    p = BlockPartition.from_matrix(minij())
    e = symmetric_perturbation(4, 1e-3 * spectral_norm(p.assemble()), 11)
    for r in check_schur_perturbation(p, e):
        assert r.verdict == "skipped"
