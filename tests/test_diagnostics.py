import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

import sympllt
from sympllt import (InvalidEntryError, UsageError, checks, diagnose, diagnostics, run_checks,
                     run_sweep, run_table)
from sympllt.diagnostics import (
    FIXTURES,
    TABLE_QUANTITIES,
    format_table,
    generate_family,
    read_csv,
    standard_fixtures,
    write_csv,
)
from sympllt.dense import condition_number, spectral_norm
from sympllt.factor import spd_inverse
from sympllt.symplectic import BlockPartition, algorithm_w1, distance_to_symplecticity, omega
from sympllt.testmat import pascal_symplectic, random_pdp, hyperbolic_spd

from frozen import frozen_report_describe, frozen_result_describe
from support import float_bits, result_bits, row_fields


def test_diagnose_rejects_nan_without_warning():
    lone = np.eye(4)
    lone[3, 0] = np.nan  # in a21, which the partition drops
    for a in (np.full((4, 4), np.nan), lone):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidEntryError):
                diagnose(a)


def test_diagnose_hyperbolic3_reference_values():
    row = diagnose(hyperbolic_spd(3.0), "hyperbolic", 3.0)
    assert row.kappa2_A == pytest.approx(2.5380e05, rel=1e-3)
    assert row.norm2_A == pytest.approx(5.0379e02, rel=1e-3)
    assert row.kappa2_A11 == pytest.approx(1.6275e05, rel=1e-3)
    assert row.relerr_w2 <= 1e-14
    assert 3.8831e-13 / 10 <= row.dist_sympl_rel <= 3.8831e-13 * 10


def test_diagnose_identity():
    row = diagnose(np.eye(4), "identity", 0.0)
    assert row.kappa2_A == 1.0 and row.kappa2_A11 == 1.0
    for name in ("dist_sympl", "relerr_w1", "relerr_w2", "omega_A",
                 "omega_L1", "omega_L2"):
        assert getattr(row, name) <= 1e-15


def test_diagnose_pascal10_kappa():
    row = diagnose(pascal_symplectic(10), "pascal", 10)
    assert row.kappa2_A == pytest.approx(1.6621e10, rel=1e-2)


def test_diagnose_deterministic():
    a = hyperbolic_spd(6.0)
    r1 = diagnose(a, "hyperbolic", 6.0)
    r2 = diagnose(a, "hyperbolic", 6.0)
    assert row_fields(r1) == row_fields(r2)


def test_diagnose_marks_failures_with_nan():
    bad = np.diag([1.0, -1.0, 1.0, -1.0])
    row = diagnose(bad, "custom", 0.0)
    assert not row.ok
    assert math.isnan(row.relerr_w1) and math.isnan(row.omega_L2)
    # structure-independent fields are still reported
    assert row.norm2_A == 1.0


def test_run_table_shapes_and_values():
    t1 = run_table(1)
    assert [r.param for r in t1] == [3.0, 4.0, 6.0, 7.0]
    t3 = run_table(3)
    assert [r.n for r in t3] == [6, 8, 10, 12]
    assert t3[-1].kappa2_A11 == pytest.approx(8.7639e11, rel=1e-2)
    t2 = run_table(2)
    assert t2[-1].relerr_w1 <= 1e-14
    with pytest.raises(UsageError):
        run_table(4)


def test_run_table_rows_come_from_the_family_registry_unchanged():
    from sympllt.testmat import hyperbolic_spd_inverse

    # the rows as run_table once built them, each generator called directly
    # with the thetas and sizes written out, so that a change to the
    # registry shows here
    thetas = (3.0, 4.0, 6.0, 7.0)
    direct = {
        1: [diagnose(hyperbolic_spd(t), "hyperbolic", t) for t in thetas],
        2: [diagnose(hyperbolic_spd_inverse(t), "hyperbolic-inverse", t) for t in thetas],
        3: [diagnose(pascal_symplectic(n), "pascal", n) for n in (6, 8, 10, 12)],
    }
    for table_id, rows in direct.items():
        assert list(map(row_fields, run_table(table_id))) == list(map(row_fields, rows))
    assert list(map(row_fields, run_table(np.int64(2)))) == list(map(row_fields, direct[2]))


@pytest.mark.parametrize("bad", [[1], "1", 0, 4, None, True, 1.0],
                         ids=["list", "str", "0", "4", "None", "True", "1.0"])
def test_run_table_rejects_an_id_outside_the_registry(bad):
    # [1] is unhashable: a membership test on the dict itself would raise TypeError
    with pytest.raises(UsageError, match=r"table id must be 1, 2 or 3, got "):
        run_table(bad)


def test_tables_1_and_2_share_kappa():
    t1, t2 = run_table(1), run_table(2)
    for a, b in zip(t1, t2):
        assert b.kappa2_A == pytest.approx(a.kappa2_A, rel=1e-2)


def test_sweep_of_length_one_equals_diagnose():
    rows = run_sweep("random", 4, 4, seed=11)
    assert len(rows) == 1
    from sympllt.testmat import random_pdp

    direct = diagnose(random_pdp(4, 11 + 4), "random", 4)
    assert row_fields(rows[0]) == row_fields(direct)


def test_sweep_deterministic_given_seed():
    a = run_sweep("random", 1, 6, seed=3)
    b = run_sweep("random", 1, 6, seed=3)
    assert list(map(row_fields, a)) == list(map(row_fields, b))


def test_sweep_continues_past_failures(monkeypatch):
    import sympllt.diagnostics as diag

    real = diag.random_pdp

    def sabotaged(n, seed):
        p = real(n, seed)
        if n == 3:
            bad = p.a11.copy()
            bad[0, 0] = -1.0
            return type(p)(n=p.n, a11=bad, a12=p.a12, a22=p.a22)
        return p

    monkeypatch.setattr(diag, "random_pdp", sabotaged)
    rows = diag.run_sweep("random", 1, 5, seed=2)
    assert len(rows) == 5
    assert not rows[2].ok and math.isnan(rows[2].relerr_w2)
    assert all(rows[i].ok for i in (0, 1, 3, 4))


def test_sweep_rejects_bad_arguments():
    with pytest.raises(UsageError):
        run_sweep("random", 5, 1)
    with pytest.raises(UsageError):
        run_sweep("hilbert", 1, 3)
    # past the family's largest n: raised before the first row
    with pytest.raises(UsageError, match=r"pascal takes n in 1\.\.16"):
        run_sweep("pascal", 1, 17)
    with pytest.raises(UsageError, match=r"random takes n in 1\.\.1000"):
        run_sweep("random", 999, 1001)


@pytest.mark.parametrize("args", [
    ("random", 1.0, 2), ("random", True, 2), ("random", 1, 2.0), ("pascal", 1, "2"),
    ("random", 1, 2, 0.5), ("random", 1, 2, True),
], ids=["float-from", "bool-from", "float-to", "str-to", "float-seed", "bool-seed"])
def test_sweep_rejects_a_non_integer_argument(args):
    with pytest.raises(UsageError, match=r"^run_sweep: n_from, n_to and seed must be integers"):
        run_sweep(*args)


def test_sweep_takes_numpy_integers():
    rows = run_sweep("random", np.int64(1), np.int32(3), np.int64(4))
    assert list(map(row_fields, rows)) == list(map(row_fields, run_sweep("random", 1, 3, 4)))


def test_csv_round_trip_bitwise(tmp_path):
    rows = run_table(1) + run_table(3)
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    back = read_csv(path)
    assert len(back) == len(rows)
    assert list(map(row_fields, rows)) == list(map(row_fields, back))


def test_diagnose_marks_singular_input():
    row = diagnose(np.diag([1.0, 0.0, 1.0, 1.0]), "singular", 0.0)
    assert not row.ok and "zero eigenvalue" in row.error
    assert row.norm2_A == 1.0 and row.norm2_A11 == 1.0 and row.omega_A >= 0.0
    for name in ("kappa2_A", "kappa2_A11", "relerr_w1", "relerr_w2", "omega_L1"):
        assert math.isnan(getattr(row, name))


def test_diagnose_marks_an_overflowing_intermediate():
    # the input is finite; omega(a) and what follows it overflow
    row = diagnose(hyperbolic_spd(200.0), "hyperbolic", 200.0)
    assert row.error == "a computed quantity overflowed to a non-finite value"
    assert math.isfinite(row.norm2_A) and math.isfinite(row.norm2_A11)
    for name in TABLE_QUANTITIES:
        if name not in ("norm2_A", "norm2_A11"):
            assert math.isnan(getattr(row, name)), name


def standalone_w1_fields(a):
    """The fields that need only A11, its Cholesky factor and W1, each computed
    outside diagnose on a fresh partition."""
    n, fresh = a.shape[0] // 2, BlockPartition.from_matrix
    a11, norm = a[:n, :n], spectral_norm(a)
    w1 = algorithm_w1(fresh(a))
    dist = distance_to_symplecticity(w1, w1.p)
    return {
        "kappa2_A11": condition_number(a11),
        "norm2_invA11": spectral_norm(spd_inverse(a11)),
        "dist_sympl": dist,
        "dist_sympl_rel": dist / norm,
        "relerr_w1": spectral_norm(algorithm_w1(fresh(a)).residual()) / norm,
        "omega_L1": spectral_norm(omega(algorithm_w1(fresh(a)).assemble())),
    }


def nan_fields(row):
    return {name for name in TABLE_QUANTITIES if math.isnan(getattr(row, name))}


def schur_error(pivot):
    return f"pivot 1 is not positive ({pivot}) during schur-complement reverse-cholesky"


# [[x, y], [y, y^2/x]] is singular in exact arithmetic, with a finite computed
# kappa2(A), and W2's Schur complement is not positive; diag(1, 0) is singular
# with the regular A11 = [1]
@pytest.mark.parametrize("a, error, nans", [
    ([[5.0, 3.0], [3.0, 9.0 / 5.0]], schur_error("0.0"), {"relerr_w2", "omega_L2"}),
    ([[1.5, 7.0], [7.0, 49.0 / 1.5]], schur_error("-7.105427357601002e-15"),
     {"relerr_w2", "omega_L2"}),
    ([[1.0, 0.0], [0.0, 0.0]], "condition_number: zero eigenvalue",
     {"kappa2_A", "relerr_w2", "omega_L2"}),
], ids=["probe-zero-pivot", "probe-negative-pivot", "singular-a-regular-a11"])
def test_a_failed_step_keeps_the_fields_that_do_not_need_it(a, error, nans):
    a = np.array(a)
    row = diagnose(a)
    assert row.error == error
    assert nan_fields(row) == nans
    expected = standalone_w1_fields(a)
    assert float_bits([getattr(row, name) for name in expected]) == float_bits(
        list(expected.values()))


def test_the_error_is_the_first_failing_field_in_row_order():
    # W2's Schur step fails at -inf and ||inv(A11)|| = 1e310 overflows; the
    # error is the Schur step's, as relerr_w2 precedes norm2_invA11 in
    # diagnostics._STEPS, and ||omega(L1)|| = 0 is still computed
    row = diagnose(np.array([[1e-310, 1.0], [1.0, -1.0]]))
    assert row.error == schur_error("-inf")
    assert float_bits([row.omega_L1]) == float_bits([0.0])
    assert nan_fields(row) == {"norm2_invA11", "dist_sympl", "dist_sympl_rel", "relerr_w1",
                               "relerr_w2", "omega_L2"}


def test_diagnose_overflow_warns_nothing_and_keeps_the_row():
    # numpy's overflow and invalid-value warnings are silenced inside
    # diagnose; the row is bitwise the one computed with them on
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = diagnose(hyperbolic_spd(200.0), "hyperbolic", 200.0)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert row.error == "a computed quantity overflowed to a non-finite value"
    assert row.norm2_A.hex() == "0x1.51c7f0dc41cc4p+577"
    assert row.norm2_A11.hex() == "0x1.0e398d7d01703p+577"
    for name in TABLE_QUANTITIES:
        if name not in ("norm2_A", "norm2_A11"):
            assert math.isnan(getattr(row, name)), name
    # the silencing does not outlive the call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        np.array([1e300]) * 1e300
    assert [w.category for w in caught] == [RuntimeWarning]


def test_diagnose_rejects_a_non_finite_partition():
    p = random_pdp(2, 1)
    a22 = p.a22.copy()
    a22[0, 0] = np.inf
    with pytest.raises(InvalidEntryError, match="input contains NaN or infinite"):
        diagnose(type(p)(n=p.n, a11=p.a11, a12=p.a12, a22=a22))


def test_sweep_continues_past_singular_input(monkeypatch):
    import sympllt.diagnostics as diag

    real = diag.random_pdp

    def singular(n, seed):
        p = real(n, seed)
        if n == 2:
            return type(p).from_matrix(np.diag([1.0, 0.0, 1.0, 1.0]))
        if n == 3:  # an intermediate overflows
            return type(p).from_matrix(hyperbolic_spd(200.0))
        return p

    monkeypatch.setattr(diag, "random_pdp", singular)
    rows = diag.run_sweep("random", 1, 4, seed=2)
    assert [r.ok for r in rows] == [True, False, False, True]


def test_csv_keeps_the_failure_message(tmp_path):
    failed = diagnose(np.diag([1.0, -1.0, 1.0, 1.0]), "indefinite", 0.0)
    assert not failed.ok
    rows = [failed, diagnose(np.eye(4), "identity", 0.0)]
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    assert path.read_text().splitlines()[0].endswith(",omega_L2,error")
    back = read_csv(path)
    assert [r.ok for r in back] == [False, True]
    assert back[0].error == failed.error
    assert list(map(row_fields, rows)) == list(map(row_fields, back))


def _csv_with_record(tmp_path, record):
    rows = [diagnose(np.eye(4), "identity", 0.0)]
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], lines[1], record(lines[1])]) + "\n")
    return path


@pytest.mark.parametrize("record, message", [
    (lambda good: good + ",extra", "line 3: expected 16 fields, got 17"),
    (lambda good: good.rsplit(",", 2)[0], "line 3: expected 16 fields, got 14"),
    (lambda good: "", "line 3: expected 16 fields, got 0"),
    (lambda good: good.replace("identity,0.0,2,", "identity,0.0,two,", 1),
     "line 3: invalid literal for int() with base 10: 'two'"),
    (lambda good: good.replace("identity,0.0,", "identity,zero,", 1),
     "line 3: could not convert string to float: 'zero'"),
    # parsed by float() or int(), but never written so by write_csv
    (lambda good: good.replace("identity,0.0,", "identity,1_0,", 1),
     "line 3: param field '1_0' is not written as '10.0'"),
    (lambda good: good.replace("identity,0.0,2,", "identity,0.0, 2 ,", 1),
     "line 3: n field ' 2 ' is not written as '2'"),
    (lambda good: good.replace("identity,0.0,2,", "identity,0.0,+2,", 1),
     "line 3: n field '+2' is not written as '2'"),
    (lambda good: good.replace("identity,0.0,", "identity,NaN,", 1),
     "line 3: param field 'NaN' is not written as 'nan'"),
    # records csv.reader itself rejects: on every Python version, and before 3.11
    (lambda good: good.replace("identity,", "identity" + "x" * 131072 + ",", 1),
     "line 3: field larger than field limit (131072)"),
    (lambda good: good.replace("identity,0.0,", "identity,\x000.0,", 1),
     "line 3: line contains NUL" if sys.version_info < (3, 11)
     else "line 3: could not convert string to float: '\\x000.0'"),
], ids=["extra-field", "short-record", "blank-line", "non-integer-n", "non-numeric-param",
        "digit-separator", "padded-n", "signed-n", "capitalised-nan", "field-over-limit",
        "nul-byte"])
def test_read_csv_rejects_a_malformed_record_naming_its_line(tmp_path, record, message):
    path = _csv_with_record(tmp_path, record)
    with pytest.raises(UsageError) as err:
        read_csv(path)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("header, latin", [(True, 3), (False, 3), (False, 200)],
                         ids=["line-3", "bad-header-line-3", "bad-header-past-8kb"])
def test_read_csv_reports_a_non_ascii_byte_naming_its_line(tmp_path, header, latin):
    # a non-ASCII byte anywhere is the error, after a wrong header too, also
    # where it lies beyond the first 8 KB that a text decoder reads ahead
    path = _csv_with_record(tmp_path, lambda good: good)
    head, good = path.read_bytes().splitlines()[:2]
    lines = [head if header else head.replace(b"family", b"kind")] + [good] * (latin - 1)
    lines[-1] = good.replace(b"identity", b"identit\xe9")  # a Latin-1 e-acute
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert (path.stat().st_size > 8192) == (latin > 3)
    with pytest.raises(UsageError, match=rf"^line {latin}: non-ASCII byte 0xe9$"):
        read_csv(path)


def test_read_csv_numbers_a_non_ascii_line_as_csv_reader_does(tmp_path):
    # csv.reader ends lines only at \n, \r and \r\n; str.splitlines would
    # also end one at the form feed in line 2 and call the bad byte's line 4
    path = _csv_with_record(tmp_path, lambda good: good)
    lines = path.read_bytes().splitlines()
    lines[1] = lines[1].replace(b"identity", b"iden\x0ctity")
    signed = lines[2].replace(b"identity,0.0,2,", b"identity,0.0,+2,")
    path.write_bytes(b"\n".join([*lines[:2], signed]) + b"\n")
    with pytest.raises(UsageError, match=r"^line 3: n field '\+2' is not written as '2'$"):
        read_csv(path)
    path.write_bytes(b"\n".join([*lines[:2], signed.replace(b"identity", b"identit\xe9")]) + b"\n")
    with pytest.raises(UsageError, match=r"^line 3: non-ASCII byte 0xe9$"):
        read_csv(path)


@pytest.mark.parametrize("content", ["", "family,param\n", "\n"],
                         ids=["empty", "short-header", "blank-header"])
def test_read_csv_rejects_a_missing_or_wrong_header(tmp_path, content):
    path = tmp_path / "rows.csv"
    path.write_text(content)
    with pytest.raises(UsageError, match="^line 1: unexpected CSV header"):
        read_csv(path)


def test_format_table_layout():
    text = format_table(run_table(3), title="pascal")
    lines = text.splitlines()
    assert lines[0] == "pascal"
    assert lines[1].split()[0] == "quantity"
    assert len(lines) == 2 + 12  # header + twelve quantities


def test_run_checks_full_suite_clean():
    report = run_checks()
    assert report.violated == 0
    assert report.exit_code == 0
    assert report.holds > 300


def test_run_checks_identity_scope():
    report = run_checks(scope="identity")
    assert report.violated == 0
    assert all(r.verdict in ("holds", "skipped") for r in report.results)
    residual_ids = ("w2-backward", "w1-error-bound")
    for r in report.results:
        if r.bound_id in residual_ids:
            assert r.lhs == 0.0


def test_run_checks_scope_filter():
    report = run_checks(scope="pascal")
    assert report.violated == 0
    assert all(r.context.startswith("pascal/") for r in report.results)
    # the base family must not pick up its inverse sibling
    report = run_checks(scope="hyperbolic")
    assert all(r.context.startswith("hyperbolic/") for r in report.results)
    with pytest.raises(UsageError):
        run_checks(scope="toeplitz")


FAMILY_SCOPES = sorted({name.split("/")[0] for _, name, _ in standard_fixtures()})


@pytest.fixture(scope="module")
def full_suite():
    return run_checks()


@pytest.mark.parametrize("scope", FAMILY_SCOPES)
def test_a_scoped_run_repeats_the_full_runs_results(full_suite, scope):
    # each fixture's perturbations are seeded from its place in the full set
    expected = [fields for fields in result_bits(full_suite.results)
                if fields[0][3].split("/")[0] == scope]
    assert result_bits(run_checks(scope=scope).results) == expected


# Each bound's worst margin lhs / (rhs (1 + slack) + floor) over the full suite,
# as measured when this table was written, the same with BLAS pinned to one
# thread or not.  The paper calls its bounds reasonably sharp: a bound written
# looser, such as coupling-norm's rhs doubled or w2-backward's 4 written as 40,
# drops its margin below 0.6 of this value and fails here, while every verdict
# still holds.
WORST_MARGINS = {
    "w1-error-bound": 0.999999000,                 # minij
    "condition-factor-squared": 0.999998990,       # pascal/2
    "condition-from-structure-loss": 0.999998990,  # pascal/2
    "condition-of-enforced-product": 0.999998990,  # pascal/2
    "coupling-norm": 0.999998990,                  # hyperbolic-inverse/7
    "leading-inverse-perturbation": 0.999916440,   # pascal/2
    "omega-factor-ordering": 0.999555087,          # diagt/1e6
    "schur-perturbation": 0.641424633,             # hyperbolic-inverse/3
    "factor-inverse-consistency": 0.281960489,     # hyperbolic-inverse/6
    "cholesky-perturbation": 0.281722776,          # pascal/2
    "l2-form-perturbation": 0.262711219,           # pascal/2
    "reverse-cholesky-perturbation": 0.181807240,  # pascal/2
    "omega-factor-amplification": 0.054417175,     # minij
    "w2-backward": 0.035269959,                    # hyperbolic/7
}


def test_each_bound_keeps_its_worst_margin(full_suite):
    worst = {}
    for r in full_suite.results:
        if r.verdict != checks.SKIPPED:
            margin = r.lhs / (r.rhs * (1.0 + r.slack) + r.floor)
            worst[r.bound_id] = max(worst.get(r.bound_id, 0.0), margin)
    assert worst.keys() == WORST_MARGINS.keys()
    for bound_id, margin in worst.items():
        assert 0.6 * WORST_MARGINS[bound_id] <= margin <= 1.0, (bound_id, margin)


def test_a_scoped_run_builds_only_its_own_fixtures(monkeypatch):
    made = []

    def counted(family, **args):
        made.append(family)
        return generate_family(family, **args)

    monkeypatch.setattr(diagnostics, "generate_family", counted)
    for scope in ["all", "identity", *FAMILY_SCOPES]:
        made.clear()
        run_checks(scope)
        assert made == [f for f, _, _ in FIXTURES if scope in ("all", f)], scope


def test_run_checks_fault_injection_detected():
    report = run_checks(scope="minij", inject_w2_fault=True)
    assert report.violated > 0
    assert report.exit_code == 1
    hit = [r for r in report.results if r.bound_id == "w2-backward"]
    assert any(r.verdict == "violated" for r in hit)


# --- the verdict layout before the check suite moved into checks, frozen ------

@pytest.mark.parametrize("scope,fault", [
    ("all", False), ("all", True), ("identity", False), ("pascal", False),
])
def test_verdict_lines_keep_their_layout(scope, fault):
    report = run_checks(scope, inject_w2_fault=fault)
    assert report.describe() == frozen_report_describe(report.results)
    for r in report.results:
        bare = dataclasses.replace(r, context="")
        assert bare.describe() == frozen_result_describe(r)


def test_one_check_suite_report_class():
    assert sympllt.CheckSuiteReport is diagnostics.CheckSuiteReport is checks.CheckSuiteReport


def test_fixture_set_composition():
    names = [name for _, name, _ in standard_fixtures()]
    assert names[0] == "minij"
    families = [n.split("/")[0] for n in names]
    assert families.count("hyperbolic") == 4
    assert families.count("hyperbolic-inverse") == 4
    assert families.count("pascal") == 5
    assert families.count("random") == 9
    assert "diagt/1e6" in names
