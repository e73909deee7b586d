"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL
line.  Criteria with stated runtime limits assert them with a monotonic
clock.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sympllt
from sympllt import (
    BlockPartition,
    algorithm_w1,
    algorithm_w2,
    check_condition_bounds,
    check_schur_perturbation,
    check_w1_error_bound,
    check_w2_backward,
    condition_number,
    distance_to_symplecticity,
    gamma,
    matmul,
    omega,
    perturbation_experiment,
    spectral_norm,
)
from sympllt.dense import EPS
from sympllt.diagnostics import (
    PERTURBATION_SCALES,
    read_csv,
    run_sweep,
    run_table,
    standard_fixtures,
    write_csv,
)
from sympllt.factor import spd_solve
from sympllt.symplectic import assemble_omega_blocks, omega_blocks
from sympllt.testmat import random_pdp, symmetric_perturbation, hyperbolic_spd

SQ2 = math.sqrt(2.0)


def _pass(criterion, message):
    print(f"ACCEPTANCE C{criterion}: PASS - {message}")


def within_factor(got, expected, factor=10.0):
    return expected / factor <= got <= expected * factor


def criterion_5_6_matrices():
    """The shared property set: every standard fixture plus 50 random
    structure-preserving matrices with n <= 50 at fixed seeds."""
    mats = [(name, p) for name, p in standard_fixtures()]
    for i in range(50):
        n = (i % 50) + 1
        mats.append((f"extra-random-n{n}-s{1000 + i}", random_pdp(n, 1000 + i)))
    return mats


# --- criterion 1: exact fixture -------------------------------------------

def test_criterion_01_exact_fixture():
    a = np.array(
        [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 2.0, 2.0],
         [1.0, 2.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0]]
    )
    p = BlockPartition.from_matrix(a)
    f1 = algorithm_w1(p)
    expected_l1 = np.array(
        [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
         [1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 0.0, 1.0]]
    )
    assert np.array_equal(f1.assemble(), expected_l1)

    resid = a - matmul(f1.assemble(), f1.assemble().T)
    assert not resid[:2, :].any() and not resid[:, :2].any()
    assert np.array_equal(resid[2:, 2:], -np.array([[1.0, -2.0], [-2.0, -1.0]]))

    f2 = algorithm_w2(p)
    expected_block = np.array([[SQ2 / 2, SQ2 / 2], [0.0, SQ2]])
    assert np.max(np.abs(f2.l22 - expected_block)) <= 1e-15

    expected_omega = np.zeros((4, 4))
    expected_omega[0, 1] = 1.0
    expected_omega[1, 0] = -1.0
    assert np.array_equal(omega(f1.assemble()), expected_omega)
    _pass(1, "4x4 integer fixture reproduced exactly by both algorithms")


# --- criteria 2-4: the three tables ----------------------------------------

TABLE1 = {
    3.0: dict(kappa2_A=2.5380e05, norm2_A=5.0379e02, kappa2_A11=1.6275e05,
              norm2_A11=4.0343e02, norm2_invA11=4.0343e02, dist_sympl=1.9563e-10,
              dist_sympl_rel=3.8831e-13, relerr_w1=3.8826e-13),
    4.0: dict(kappa2_A=1.3881e07, norm2_A=3.7257e03, kappa2_A11=8.8861e06,
              norm2_A11=2.9810e03, norm2_invA11=2.9810e03, dist_sympl=1.7270e-06,
              dist_sympl_rel=4.6353e-10, relerr_w1=4.6353e-10),
    6.0: dict(kappa2_A=4.1389e10, norm2_A=2.0344e05, kappa2_A11=2.6489e10,
              norm2_A11=1.6275e05, norm2_invA11=1.6275e05, dist_sympl=3.2124e-01,
              dist_sympl_rel=1.5790e-06, relerr_w1=1.5790e-06),
    7.0: dict(kappa2_A=2.2601e12, norm2_A=1.5033e06, kappa2_A11=1.4462e12,
              norm2_A11=1.2026e06, norm2_invA11=1.2025e06, dist_sympl=1.8255e02,
              dist_sympl_rel=1.2144e-04, relerr_w1=1.2144e-04),
}

TABLE3 = {
    6: dict(kappa2_A=4.4315e05, norm2_A=6.6569e02, kappa2_A11=1.1079e05),
    8: dict(kappa2_A=8.2581e07, norm2_A=9.0874e03, kappa2_A11=2.0645e07),
    10: dict(kappa2_A=1.6621e10, norm2_A=1.2892e05, kappa2_A11=4.1552e09),
    12: dict(kappa2_A=3.5056e12, norm2_A=1.8723e06, kappa2_A11=8.7639e11),
}


def test_criterion_02_table1():
    t0 = time.perf_counter()
    rows = run_table(1)
    elapsed = time.perf_counter() - t0
    for row in rows:
        ref = TABLE1[row.param]
        for name in ("kappa2_A", "norm2_A", "kappa2_A11", "norm2_A11",
                     "norm2_invA11"):
            assert getattr(row, name) == pytest.approx(ref[name], rel=1e-2), name
        for name in ("dist_sympl", "dist_sympl_rel", "relerr_w1"):
            assert within_factor(getattr(row, name), ref[name]), (name, row.param)
        assert row.relerr_w2 <= 1e-14
    assert elapsed < 1.0
    _pass(2, f"table 1 reproduced in {elapsed:.3f}s")


def test_criterion_03_table2():
    t0 = time.perf_counter()
    rows = run_table(2)
    elapsed = time.perf_counter() - t0
    for row in rows:
        assert 4.5 <= row.kappa2_A11 <= 5.5
        assert row.relerr_w1 <= 1e-14
        assert row.relerr_w2 <= 1e-14
        assert row.omega_L1 <= row.omega_L2
    assert elapsed < 1.0
    _pass(3, f"table 2 reproduced in {elapsed:.3f}s")


def test_criterion_04_table3():
    t0 = time.perf_counter()
    rows = run_table(3)
    elapsed = time.perf_counter() - t0
    for row in rows:
        ref = TABLE3[row.n]
        for name in ("kappa2_A", "norm2_A", "kappa2_A11"):
            assert getattr(row, name) == pytest.approx(ref[name], rel=1e-2), name
        assert row.omega_A == 0.0
        assert row.relerr_w2 <= 1e-14
        assert within_factor(row.relerr_w1, row.dist_sympl_rel)
    assert elapsed < 1.0
    _pass(4, f"table 3 reproduced in {elapsed:.3f}s")


# --- criteria 5-6: stability properties ------------------------------------

def test_criterion_05_w2_backward_property():
    violations = []
    for name, p in criterion_5_6_matrices():
        result = check_w2_backward(p)
        if result.verdict != "holds":
            violations.append((name, result.describe()))
    assert not violations, violations
    _pass(5, "w2 backward bound holds on all fixtures + 50 random matrices")


def test_criterion_06_w1_error_property():
    failures = []
    for name, p in criterion_5_6_matrices():
        result = check_w1_error_bound(p)
        if result.verdict != "holds":
            failures.append((name, result.describe()))
        f1 = algorithm_w1(p)
        norm_a = spectral_norm(p.assemble())
        dist_rel = distance_to_symplecticity(f1, p) / norm_a
        relerr = spectral_norm(f1.residual()) / norm_a
        if dist_rel > 1e-12 and relerr < 0.01 * dist_rel:
            failures.append((name, f"relerr {relerr:.3e} < 0.01 * {dist_rel:.3e}"))
    assert not failures, failures
    _pass(6, "w1 error bound holds and tracks the symplecticity distance")


# --- criterion 7: identity suite -------------------------------------------

def test_criterion_07_identity_suite():
    violations = []
    for name, p in standard_fixtures():
        a = p.assemble()
        n = p.n
        norm_a = spectral_norm(a)
        f1 = algorithm_w1(p)
        inv_a11 = matmul(f1.l22, np.ascontiguousarray(f1.l22.T))
        ninv = spectral_norm(inv_a11)
        dist = distance_to_symplecticity(f1, p)

        # condition-number identities and bounds
        for result in check_condition_bounds(p):
            if result.verdict == "violated":
                violations.append((name, result.describe()))

        # block reassembly of the structure residual
        o11, o12, o22 = omega_blocks(p)
        gap = np.max(np.abs(assemble_omega_blocks(o11, o12, o22) - omega(a)))
        if gap > 1e-13 * norm_a ** 2:
            violations.append((name, f"omega block reassembly gap {gap:.3e}"))

        # norm of the inverse is controlled by the distance (AA1 form)
        lhs = ninv
        rhs = (norm_a + dist) * (1 + 1e-6) + 100 * n * EPS * norm_a
        if lhs > rhs:
            violations.append((name, f"inverse-norm bound {lhs:.6e} > {rhs:.6e}"))

        # distance controlled by the structure loss (departure bound)
        w = spd_solve(p.a11, p.a12)
        omega_a = spectral_norm(omega(a))
        rhs = (ninv * (spectral_norm(w) + 1.0) * omega_a * (1 + 1e-6)
               + 100 * n * EPS * ninv * norm_a)
        if dist > rhs:
            violations.append((name, f"departure bound {dist:.6e} > {rhs:.6e}"))

        # omega ordering between the two factors
        f2 = algorithm_w2(p)
        ol1 = spectral_norm(omega(f1.assemble()))
        ol2 = spectral_norm(omega(f2.assemble()))
        if ol1 > ol2 + 100 * n * EPS * spectral_norm(f2.assemble()) ** 2:
            violations.append((name, f"omega ordering {ol1:.3e} vs {ol2:.3e}"))

        # entrywise identities, on well-conditioned leading blocks
        if condition_number(p.a11) <= 1e6:
            n11 = spectral_norm(p.a11)
            tol = 1e-10 * max(ninv, n11) * norm_a
            gap = np.max(np.abs(o11 - matmul(matmul(p.a11, w.T - w), p.a11)))
            if gap > tol:
                violations.append((name, f"coupling identity gap {gap:.3e}"))
            s = p.a22 - matmul(f1.p.l21, np.ascontiguousarray(f1.p.l21.T))
            s = 0.5 * (s + s.T)
            gap = np.max(
                np.abs((inv_a11 - s) - matmul(inv_a11, matmul(o11, w) - o12))
            )
            if gap > 1e-10 * ninv * norm_a:
                violations.append((name, f"schur identity gap {gap:.3e}"))
    assert not violations, violations
    _pass(7, "identity suite holds over the full fixture set")


# --- criterion 8: perturbation suite ----------------------------------------

def test_criterion_08_perturbation_suite():
    violations = []
    held = 0
    for index, (name, p) in enumerate(standard_fixtures()):
        a = p.assemble()
        norm_a = spectral_norm(a)
        for scale_index, scale in enumerate(PERTURBATION_SCALES):
            e = symmetric_perturbation(2 * p.n, scale * norm_a,
                                       7700 + 13 * index + scale_index)
            for kind in ("cholesky", "reverse-cholesky", "l2-form"):
                r = perturbation_experiment(a, e, kind)
                if r.verdict == "violated":
                    violations.append((name, scale, r.describe()))
                held += r.verdict == "holds"
            for r in check_schur_perturbation(p, e):
                if r.verdict == "violated":
                    violations.append((name, scale, r.describe()))
                held += r.verdict == "holds"
    assert not violations, violations
    assert held > 100  # the suite is far from vacuous

    # structural check: the factor difference keeps the block form exactly
    for fixture, seed in (("hyperbolic", 21), ("pascal", 22)):
        base = (hyperbolic_spd(3.0) if fixture == "hyperbolic"
                else standard_fixtures()[7][1].assemble())
        n = base.shape[0] // 2
        e = symmetric_perturbation(2 * n, 1e-8 * spectral_norm(base), seed)
        before = algorithm_w2(BlockPartition.from_matrix(base)).assemble()
        after = algorithm_w2(BlockPartition.from_matrix(base + e)).assemble()
        delta = after - before
        assert not delta[:n, n:].any()
        assert np.array_equal(np.triu(delta[:n, :n], 1), np.zeros((n, n)))
        assert np.array_equal(np.tril(delta[n:, n:], -1), np.zeros((n, n)))
    _pass(8, f"perturbation suite: {held} bounds hold, 0 violated")


# --- criterion 9: figure sweep ----------------------------------------------

def test_criterion_09_random_sweep(tmp_path):
    t0 = time.perf_counter()
    rows = run_sweep("random", 1, 100, seed=9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert len(rows) == 100 and all(r.ok for r in rows)

    path = tmp_path / "sweep.csv"
    write_csv(path, rows)
    back = read_csv(path)
    for a, b in zip(rows, back):
        for field in ("n", "relerr_w1", "relerr_w2", "dist_sympl_rel"):
            assert getattr(a, field) == getattr(b, field)

    for row in rows:
        assert row.relerr_w2 <= 4 * row.n * gamma(row.n + 2), row.n
        if row.dist_sympl_rel > 1e-12:
            assert row.relerr_w1 >= 0.01 * row.dist_sympl_rel, row.n

    bound_failures = []
    for row in rows:
        p = random_pdp(row.n, 9 + row.n)
        r = check_w1_error_bound(p)
        if r.verdict != "holds":
            bound_failures.append((row.n, r.describe()))
    assert not bound_failures, bound_failures
    _pass(9, f"sweep n=1..100 in {elapsed:.1f}s; every row satisfies the bounds")


# --- criterion 10: fault injection -----------------------------------------

def test_criterion_10_fault_injection():
    p = BlockPartition.from_matrix(hyperbolic_spd(3.0))
    assert check_w2_backward(p).holds
    injected = check_w2_backward(p, l22_perturbation=1e-3)
    assert injected.verdict == "violated"

    # the child imports the same sympllt package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sympllt.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sympllt.cli", "check", "--scope", "minij",
         "--inject-w2-fault"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 1
    assert "violated" in proc.stdout
    _pass(10, "injected w2 fault is detected and the CLI exits nonzero")
