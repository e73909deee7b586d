"""check_perturbation_bounds shares one factorization per matrix: the gates.

The perturbation bounds read the unperturbed factors and ||inv(a)|| from
the partition's cache, and all five bounds of one perturbation share one
||e|| and one partition of a + e.  These tests pin that the sharing changes
no bit of any verdict, lhs, rhs, floor, slack or skip reason (against the
frozen copy of the per-call code it replaced), that the raw-matrix
wrappers give what the partition path gives, and how much work a check
suite does.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from sympllt import checks, dense, factor, symplectic
from sympllt.checks import (
    PERTURBATION_SCALES,
    check_all_bounds,
    check_perturbation_bounds,
    check_schur_perturbation,
    perturbation_experiment,
)
from sympllt.dense import spectral_norm
from sympllt.diagnostics import run_checks, standard_fixtures
from sympllt.errors import DimensionError, FactorError
from sympllt.factor import cholesky_lower, reverse_cholesky_upper, spd_inverse
from sympllt.symplectic import BlockPartition
from sympllt.testmat import hyperbolic_spd, minij, symmetric_perturbation

from frozen import (KINDS, frozen_bounds, frozen_check_schur_perturbation,
                    frozen_perturbation_experiment, frozen_standard_fixtures)
from support import float_bits, rebind, result_bits


# --- helpers ----------------------------------------------------------------

def suite_perturbations(fixtures):
    """(index, scale index, p, e) for every perturbation run_checks makes."""
    out = []
    for index, _, p in fixtures:
        for scale_index, scale in enumerate(PERTURBATION_SCALES):
            e = symmetric_perturbation(2 * p.n, scale * p.norm,
                                       7700 + 13 * index + scale_index)
            out.append((index, scale_index, p, e))
    return out


FIXTURES = [(name, p) for _, name, p in standard_fixtures()]
IDS = [name for name, _ in FIXTURES]


# --- bitwise gates ------------------------------------------------------------

@pytest.mark.parametrize("scope,fault", [
    ("all", False), ("all", True), ("identity", False), ("pascal", True),
])
def test_run_checks_matches_the_frozen_bounds(monkeypatch, scope, fault):
    actual = run_checks(scope, inject_w2_fault=fault)
    monkeypatch.setattr(checks, "check_perturbation_bounds", frozen_bounds)
    expected = run_checks(scope, inject_w2_fault=fault)
    assert result_bits(actual.results) == result_bits(expected.results)
    assert (actual.holds, actual.violated, actual.skipped) == (
        expected.holds, expected.violated, expected.skipped)


@pytest.mark.parametrize("name", ["minij", "pascal/6", "random/n5-s2"])
def test_check_all_bounds_draws_the_kth_perturbation_from_seed_plus_k(name):
    p = dict(FIXTURES)[name]
    seed = 4242
    expected = []
    for k, scale in enumerate(PERTURBATION_SCALES):
        e = symmetric_perturbation(2 * p.n, scale * p.norm, seed + k)
        expected += check_perturbation_bounds(BlockPartition.from_matrix(p.assemble()), e)
    actual = check_all_bounds(BlockPartition.from_matrix(p.assemble()), seed)
    assert len(expected) == 10
    assert result_bits(actual[-10:]) == result_bits(expected)


@pytest.mark.parametrize("kind", KINDS)
def test_the_damp_skip_factors_nothing_of_a_plus_e(monkeypatch, kind):
    a = hyperbolic_spd(7.0)
    e = 1e-4 * np.eye(4)
    inputs = []

    def recorded(m, stage="cholesky"):
        inputs.append(np.array(m))
        return cholesky_lower(m, stage)

    assert rebind(monkeypatch, factor.cholesky_lower, recorded)
    r = perturbation_experiment(a, e, kind)
    assert r.verdict == "skipped"
    assert r.reason.startswith("||inv(a)|| ||e|| = ") and r.reason.endswith(" is not below 1")
    # the one factorization is a's own Cholesky, behind ||inv(a)||
    assert [float_bits(m) for m in inputs] == [float_bits(a)]


def test_suite_counts_are_unchanged():
    report = run_checks()
    assert (report.holds, report.violated, report.skipped) == (375, 0, 81)


@pytest.mark.parametrize("name,p", FIXTURES, ids=IDS)
def test_every_path_matches_the_frozen_bounds(name, p):
    index = IDS.index(name)
    # the suite's two scales, and one large enough to reach the skips
    for scale_index, scale in enumerate((*PERTURBATION_SCALES, 1e-4)):
        e = symmetric_perturbation(2 * p.n, scale * p.norm, 7700 + 13 * index + scale_index)
        expected = result_bits(frozen_bounds(BlockPartition.from_matrix(p.assemble()), e))
        # the partition path, on a fresh and on an already checked partition
        fresh = BlockPartition.from_matrix(p.assemble())
        assert result_bits(check_perturbation_bounds(fresh, e)) == expected
        assert result_bits(check_perturbation_bounds(fresh, e)) == expected
        # the raw-matrix and per-bound wrappers
        a = p.assemble()
        wrapped = [perturbation_experiment(a, e, kind) for kind in KINDS]
        wrapped += check_schur_perturbation(BlockPartition.from_matrix(a), e)
        assert result_bits(wrapped) == expected


@pytest.mark.parametrize("a", [
    minij(), np.eye(4), hyperbolic_spd(7.0),
    np.diag([1.0, 1.0, -1.0, 1.0]),   # not positive definite
    np.diag([1.0, 1e-17, 1.0, 1.0]),  # a + e loses definiteness
], ids=["minij", "identity", "hyperbolic7", "indefinite", "nearly-singular"])
def test_wrappers_match_the_frozen_code_on_edge_inputs(a):
    n2 = a.shape[0]
    perturbations = [np.zeros_like(a), 1e-8 * np.eye(n2), -1e-16 * np.eye(n2),
                     symmetric_perturbation(n2, 1e-10, 3)]
    for e in perturbations:
        for kind in KINDS:
            assert (result_bits([perturbation_experiment(a, e, kind)])
                    == result_bits([frozen_perturbation_experiment(a, e, kind)]))
        p = BlockPartition.from_matrix(a)
        try:
            expected = result_bits(frozen_check_schur_perturbation(p, e))
        except FactorError as exc:
            # the unperturbed leading block does not factor: both raise it
            with pytest.raises(FactorError, match=str(exc)):
                check_schur_perturbation(BlockPartition.from_matrix(a), e)
            continue
        assert result_bits(check_schur_perturbation(BlockPartition.from_matrix(a), e)) == expected


def test_unknown_kind_and_asymmetric_input_raise_as_before():
    with pytest.raises(ValueError, match="unknown perturbation kind 'qr'"):
        perturbation_experiment(minij(), np.zeros((4, 4)), "qr")
    skew = np.zeros((4, 4))
    skew[0, 1] = 1.0
    for call in (lambda: perturbation_experiment(minij(), skew, "cholesky"),
                 lambda: check_schur_perturbation(BlockPartition.from_matrix(minij()), skew),
                 lambda: check_perturbation_bounds(BlockPartition.from_matrix(minij()), skew)):
        with pytest.raises(DimensionError, match="asymmetry"):
            call()


@pytest.mark.parametrize("name,p", FIXTURES, ids=IDS)
def test_cached_whole_matrix_factors(name, p):
    q = BlockPartition.from_matrix(p.assemble())
    a = q.assemble()
    try:
        expected = spd_inverse(a)
    except FactorError:
        with pytest.raises(FactorError):
            q.norm_inv
        return
    assert float_bits(q.cholesky) == float_bits(cholesky_lower(a))
    assert float_bits(q.reverse_cholesky) == float_bits(reverse_cholesky_upper(a))
    assert float_bits(q.norm_inv) == float_bits(spectral_norm(expected))
    for cached in (q.cholesky, q.reverse_cholesky):
        with pytest.raises(ValueError):
            cached[0, 0] = 2.0


def test_a_failed_factor_is_not_cached():
    p = BlockPartition.from_matrix(np.diag([1.0, 1.0, -1.0, 1.0]))
    for _ in range(2):
        with pytest.raises(FactorError, match="pivot 3 .* during cholesky"):
            p.cholesky
        with pytest.raises(FactorError, match="pivot 2 .* during reverse-cholesky"):
            p.reverse_cholesky


def test_fixtures_from_the_registry_keep_names_order_and_bytes():
    expected = [(name, p.n, float_bits(p.a11), float_bits(p.a12), float_bits(p.a22))
                for name, p in frozen_standard_fixtures()]
    actual = [(name, p.n, float_bits(p.a11), float_bits(p.a12), float_bits(p.a22))
              for _, name, p in standard_fixtures()]
    assert actual == expected
    assert [i for i, _, _ in standard_fixtures()] == list(range(len(expected)))
    assert all(isinstance(p, BlockPartition) for _, _, p in standard_fixtures())


# --- work per check suite -------------------------------------------------------

def count_everywhere(monkeypatch, original, tally):
    """Replace every sympllt binding of ``original`` with a counting wrapper."""
    def counted(*args, **kwargs):
        tally.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)
    rebind(monkeypatch, original, counted)


def test_run_checks_factors_each_matrix_once(monkeypatch):
    choleskys, inverses, w2s, partitions = [], [], [], []
    count_everywhere(monkeypatch, factor.cholesky_lower, choleskys)
    count_everywhere(monkeypatch, factor.spd_inverse, inverses)
    count_everywhere(monkeypatch, symplectic.algorithm_w2, w2s)
    from_matrix = BlockPartition.from_matrix.__func__

    def recorded(cls, a):
        partitions.append(bytes(np.ascontiguousarray(a, dtype=np.float64)))
        return from_matrix(cls, a)

    monkeypatch.setattr(BlockPartition, "from_matrix", classmethod(recorded))
    report = run_checks()
    assert (report.holds, report.violated, report.skipped) == (375, 0, 81)
    # per suite before the sharing: 538 Cholesky, 153 spd_inverse, 88 w2; the
    # random fixtures' inv(g) then came from 9 more Cholesky and spd_inverse
    # calls, now read from the partition's own leading-block factor
    assert len(choleskys) <= 233
    assert inverses == []
    assert len(w2s) <= 56
    # one partition of a + e per (fixture, scale), shared by all five bounds
    monkeypatch.undo()
    made = Counter(partitions)
    for _, _, p, e in suite_perturbations(standard_fixtures()):
        assert made[(p.assemble() + e).tobytes()] == 1


def test_one_perturbation_factors_a_plus_e_once_per_factor(monkeypatch):
    p = BlockPartition.from_matrix(hyperbolic_spd(3.0))
    e = symmetric_perturbation(4, 1e-10 * p.norm, 9)
    before = result_bits(check_perturbation_bounds(p, e))
    choleskys, w2s, norms_of_e = [], [], []
    count_everywhere(monkeypatch, factor.cholesky_lower, choleskys)
    count_everywhere(monkeypatch, symplectic.algorithm_w2, w2s)
    norm = dense.spectral_norm

    def spectral_norm_counted(a):
        if np.shape(a) == e.shape and np.array_equal(a, e):
            norms_of_e.append(a)
        return norm(a)

    for module in (checks, dense):
        monkeypatch.setattr(module, "spectral_norm", spectral_norm_counted)
    # p's own factors are cached now: only a + e is factored, each factor once
    # (whole matrix, its reversal, the leading block and the Schur complement),
    # and ||e|| is taken once for all five bounds
    assert result_bits(check_perturbation_bounds(p, e)) == before
    assert len(choleskys) == 4
    assert len(w2s) == 1
    assert len(norms_of_e) == 1
