"""BlockPartition caches its factors, intermediates and scalars: the gates.

Every check and diagnostic of one partition shares one factorization.
These tests pin that sharing changes no bit of any result, that each
algorithm runs once per partition and each per-matrix scalar is computed
once, that the cached arrays cannot be written, that a partition is freed
with its last reference, and that a failed diagnostics row keeps its NaNs.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from sympllt import UsageError, symplectic
from sympllt.checks import (
    check_condition_bounds,
    check_omega_factor_bounds,
    check_schur_perturbation,
    check_w1_error_bound,
    check_w2_backward,
)
from sympllt.dense import condition_number, spectral_norm
from sympllt.diagnostics import diagnose, run_checks, standard_fixtures
from sympllt.factor import spd_inverse, spd_solve
from sympllt.symplectic import (BlockPartition, algorithm_w1, algorithm_w2,
                                distance_to_symplecticity, omega)
from sympllt.testmat import random_pdp, symmetric_perturbation

from support import float_bits as bits


def result_bits(results):
    if not isinstance(results, list):
        results = [results]
    return [(r.bound_id, r.verdict, r.reason, r.slack, bits([r.lhs, r.rhs, r.floor]))
            for r in results]


def partition_checks(p):
    """The five partition checks, each as a function of a partition."""
    e = symmetric_perturbation(2 * p.n, 1e-10 * spectral_norm(p.assemble()), 7700 + p.n)
    return [
        check_w2_backward,
        check_w1_error_bound,
        check_omega_factor_bounds,
        check_condition_bounds,
        lambda q: check_schur_perturbation(q, e),
    ]


def frozen_scalars(p):
    """The per-matrix scalars by the formulas each caller once used inline."""
    a = p.assemble()
    drift = p.inv_a11 - p.schur
    return {
        "norm": spectral_norm(a),
        "kappa": condition_number(a),
        "norm_a11": spectral_norm(p.a11),
        "kappa_a11": condition_number(p.a11),
        "omega_norm": spectral_norm(omega(a)),
        "norm_inv_a11": spectral_norm(p.inv_a11),
        "drift": drift,
        "dist": spectral_norm(drift),
    }


CASES = [(name, p) for name, p in standard_fixtures()] + [
    (f"random_pdp({n}, {n})", random_pdp(n, n)) for n in [*range(1, 13), 64, 65, 100]
]


@pytest.mark.parametrize("name,p", CASES, ids=[name for name, _ in CASES])
def test_shared_partition_matches_fresh_partitions(name, p):
    checks = partition_checks(p)
    fresh = [result_bits(check(BlockPartition.from_matrix(p.assemble())))
             for check in checks]

    shared = BlockPartition.from_matrix(p.assemble())
    assert [result_bits(check(shared)) for check in checks] == fresh

    shared = BlockPartition.from_matrix(p.assemble())
    backward = [result_bits(check(shared)) for check in reversed(checks)]
    assert backward[::-1] == fresh

    assert bits(shared.inv_a11) == bits(spd_inverse(shared.a11))
    assert bits(shared.coupling) == bits(spd_solve(shared.a11, shared.a12))

    fresh = frozen_scalars(BlockPartition.from_matrix(p.assemble()))
    expected = {name: bits(value) for name, value in fresh.items()}
    unread = BlockPartition.from_matrix(p.assemble())
    for q in (unread, shared):
        assert {k: bits(getattr(q, k)) for k in expected} == expected


COUNTED = [c for c in CASES if c[0] in ("minij", "pascal/6", "random_pdp(100, 100)")]


@pytest.mark.parametrize("name,p", COUNTED, ids=[name for name, _ in COUNTED])
def test_each_algorithm_runs_once_per_partition(monkeypatch, name, p):
    calls = {"w1": [], "w2": []}

    def counted(tag, fn):
        def wrapper(q):
            calls[tag].append(q)
            return fn(q)
        return wrapper

    monkeypatch.setattr(symplectic, "algorithm_w1", counted("w1", algorithm_w1))
    monkeypatch.setattr(symplectic, "algorithm_w2", counted("w2", algorithm_w2))
    p = BlockPartition.from_matrix(p.assemble())
    for check in partition_checks(p):
        check(p)
    assert diagnose(p).ok
    for tag in ("w1", "w2"):
        assert [q for q in calls[tag] if q is p] == [p], tag


def test_run_checks_computes_each_scalar_once_per_fixture(monkeypatch):
    calls = {"eigvalsh": 0, "omega": 0}

    def counted(tag, fn):
        def wrapper(*args):
            calls[tag] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(symplectic, "omega", counted("omega", symplectic.omega))
    run_checks()
    # at most 862 eigensolves (1117 with every caller forming its own
    # scalars) and omega(a) once per fixture (24 of them)
    assert calls["eigvalsh"] <= 862
    assert calls["omega"] == len(standard_fixtures())


def test_distance_needs_a_w1_factor_of_the_same_partition():
    p = random_pdp(5, 1)
    assert distance_to_symplecticity(algorithm_w1(p), p) == p.dist
    other = BlockPartition.from_matrix(p.assemble())
    with pytest.raises(UsageError):
        distance_to_symplecticity(algorithm_w1(other), p)
    with pytest.raises(UsageError):
        distance_to_symplecticity(p.w2, p)


def test_a_partition_is_freed_with_its_last_reference():
    # a factor holds its partition, so a partition that cached its factors
    # would outlive its last reference until a gc pass, arrays and all
    gc.disable()
    try:
        p = random_pdp(20, 3)
        for check in partition_checks(p):
            check(p)
        assert diagnose(p).ok and p.w1.p is p and p.w2.p is p
        freed = weakref.ref(p)
        del p
        assert freed() is None
    finally:
        gc.enable()


def test_cached_arrays_are_read_only():
    p = random_pdp(4, 1)
    expected = algorithm_w2(BlockPartition.from_matrix(p.assemble()))
    f1 = algorithm_w1(p)
    with pytest.raises(ValueError):
        f1.p.l11[0, 0] = 2.0
    with pytest.raises(ValueError):
        f1.p.l21[0, 0] = 2.0
    with pytest.raises(ValueError):
        f1.l22[0, 0] = 2.0
    with pytest.raises(ValueError):
        p.schur[0, 0] = 2.0
    with pytest.raises(ValueError):
        p.inv_a11[0, 0] = 2.0
    with pytest.raises(ValueError):
        p.drift[0, 0] = 2.0
    f2 = algorithm_w2(p)
    assert f2.p is f1.p
    assert bits(f2.assemble()) == bits(expected.assemble())


NAN_AFTER_FAILURE = ["norm2_invA11", "dist_sympl", "dist_sympl_rel", "relerr_w1",
                     "relerr_w2", "omega_L1", "omega_L2"]


@pytest.mark.parametrize("diagonal,stage", [
    ([1.0, 1.0, -1.0, 1.0], "schur-complement reverse-cholesky"),
    ([1.0, -1.0, 1.0, 1.0], "leading-block cholesky"),
])
def test_failed_factorization_keeps_nans(diagonal, stage):
    # diag(1, 1, -1, 1) passes w1 and fails in the Schur step of w2: the
    # fields that need both factors must stay NaN
    row = diagnose(np.diag(diagonal))
    assert not row.ok
    assert row.error.startswith("pivot 2 is not positive")
    assert row.error.endswith(f"during {stage}")
    assert (row.n, row.kappa2_A, row.norm2_A, row.kappa2_A11, row.norm2_A11,
            row.omega_A) == (2, 1.0, 1.0, 1.0, 1.0, 2.0)
    assert all(math.isnan(getattr(row, name)) for name in NAN_AFTER_FAILURE)


def test_singular_input_keeps_nans():
    row = diagnose(np.diag([1.0, 0.0, 1.0, 1.0]))
    assert row.error == "condition_number: zero eigenvalue"
    assert (row.n, row.norm2_A, row.norm2_A11, row.omega_A) == (2, 1.0, 1.0, 1.0)
    assert math.isnan(row.kappa2_A) and math.isnan(row.kappa2_A11)
    assert all(math.isnan(getattr(row, name)) for name in NAN_AFTER_FAILURE)
