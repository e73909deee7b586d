import numpy as np
import pytest

from sympllt import diagnostics, matio
from sympllt.cli import main
from sympllt.testmat import minij, hyperbolic_spd


def test_gen_and_read_back(tmp_path):
    out = tmp_path / "a.mat"
    assert main(["gen", "--family", "hyperbolic", "--theta", "3", "--out", str(out)]) == 0
    assert np.array_equal(matio.read_matrix(out), hyperbolic_spd(3.0))


def test_gen_every_family(tmp_path):
    cases = [
        ["--family", "minij"],
        ["--family", "hyperbolic-inverse", "--theta", "4"],
        ["--family", "pascal", "--n", "4"],
        ["--family", "diagt", "--t", "1e4", "--theta", "1e-9"],
        ["--family", "random", "--n", "5", "--seed", "9"],
    ]
    for i, extra in enumerate(cases):
        out = tmp_path / f"m{i}.mat"
        assert main(["gen", *extra, "--out", str(out)]) == 0
        a = matio.read_matrix(out)
        assert a.shape[0] == a.shape[1]


def test_factor_round_trip(tmp_path):
    src = tmp_path / "a.mat"
    dst = tmp_path / "l.mat"
    matio.write_matrix(src, minij())
    assert main(["factor", "--alg", "w1", "--in", str(src), "--out", str(dst)]) == 0
    expected = np.array(
        [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, -1], [1, 1, 0, 1]], dtype=float
    )
    assert np.array_equal(matio.read_matrix(dst), expected)
    assert main(["factor", "--alg", "w2", "--in", str(src), "--out", str(dst)]) == 0
    l2 = matio.read_matrix(dst)
    assert abs(l2[2, 2] - np.sqrt(2) / 2) <= 1e-15


def test_factor_not_positive_definite_exit_code(tmp_path):
    src = tmp_path / "bad.mat"
    matio.write_matrix(src, np.diag([1.0, -1.0, 1.0, 1.0]))
    code = main(["factor", "--alg", "w2", "--in", str(src), "--out",
                 str(tmp_path / "x.mat")])
    assert code == 3


def test_factor_odd_order_is_usage_error(tmp_path):
    src = tmp_path / "odd.mat"
    matio.write_matrix(src, np.eye(3))
    code = main(["factor", "--alg", "w1", "--in", str(src), "--out",
                 str(tmp_path / "x.mat")])
    assert code == 2


def test_diagnose_family_stdout(capsys):
    assert main(["diagnose", "--family", "hyperbolic", "--theta", "3"]) == 0
    out = capsys.readouterr().out
    assert "kappa2_A" in out and "relerr_w2" in out


def test_diagnose_from_file(tmp_path, capsys):
    src = tmp_path / "a.mat"
    matio.write_matrix(src, minij())
    assert main(["diagnose", "--in", str(src)]) == 0
    assert "dist_sympl" in capsys.readouterr().out


def test_diagnose_requires_source():
    assert main(["diagnose"]) == 2


def test_diagnose_failure_exit(tmp_path):
    src = tmp_path / "bad.mat"
    matio.write_matrix(src, np.diag([1.0, -1.0, 1.0, 1.0]))
    assert main(["diagnose", "--in", str(src)]) == 3


def test_non_finite_generated_input_is_usage_error(capsys):
    # 2 t overflows to inf in the generated matrix
    assert main(["diagnose", "--family", "diagt", "--t", "1e308"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


def test_overflowing_intermediate_is_a_numerical_failure(capsys):
    # the generated matrix is finite; omega(a) overflows
    assert main(["diagnose", "--family", "hyperbolic", "--theta", "200"]) == 3
    captured = capsys.readouterr()
    assert "hyperbolic(200)" in captured.out
    assert captured.err.startswith("numerical failure: a computed quantity overflowed")


def test_diagnose_singular_input_writes_failed_row(tmp_path, capsys):
    src = tmp_path / "singular.mat"
    matio.write_matrix(src, np.diag([1.0, 0.0, 1.0, 1.0]))
    out = tmp_path / "row.csv"
    assert main(["diagnose", "--in", str(src), "--csv", str(out)]) == 3
    assert "numerical failure:" in capsys.readouterr().err
    from sympllt.diagnostics import read_csv

    (row,) = read_csv(out)
    assert not row.ok and "zero eigenvalue" in row.error


def test_table_command(tmp_path, capsys):
    csv = tmp_path / "t1.csv"
    assert main(["table", "--id", "1", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "table 1" in out
    text = csv.read_text().splitlines()
    assert len(text) == 5  # header + four thetas


def test_sweep_command(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--family", "random", "--from", "1", "--to", "5",
                 "--seed", "2", "--csv", str(csv)]) == 0
    from sympllt.diagnostics import read_csv

    rows = read_csv(csv)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5]


def test_check_command_clean(capsys):
    assert main(["check", "--scope", "minij"]) == 0
    out = capsys.readouterr().out
    assert "0 violated" in out


def test_check_fault_injection_nonzero_exit(capsys):
    code = main(["check", "--scope", "minij", "--inject-w2-fault"])
    assert code == 1
    assert "violated" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--family", "hilbert", "--out", "/tmp/x.mat"])
    assert err.value.code == 2


@pytest.mark.parametrize("args", [
    ["diagnose", "--family", "hyperbolic", "--theta", "1000"],
    ["diagnose", "--family", "hyperbolic-inverse", "--theta", "-1000"],
    ["diagnose", "--family", "hyperbolic", "--theta", "nan"],
    ["diagnose", "--family", "random", "--n", "0"],
    ["diagnose", "--family", "pascal", "--n", "17"],
    ["diagnose", "--family", "diagt", "--t", "0.5"],
    ["diagnose", "--family", "diagt", "--theta", "-1"],
    ["gen", "--family", "hyperbolic", "--theta", "1000"],
    ["gen", "--family", "hyperbolic-inverse", "--theta", "800"],
    ["gen", "--family", "pascal", "--n", "20"],
    ["gen", "--family", "random", "--n", "-3"],
    ["sweep", "--from", "5", "--to", "1"],
    ["sweep", "--from", "0", "--to", "3"],
])
def test_out_of_range_family_argument_is_usage_error(tmp_path, capsys, args):
    # bad arguments are found before the output is opened: no file is made
    out = tmp_path / "x.mat"
    args = [*args, "--out" if args[0] == "gen" else "--csv", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err and "numerical failure" not in err
    assert not out.exists()


def _non_ascii_file(tmp_path):
    path = tmp_path / "latin1.mat"
    path.write_bytes(b"2 2\n1.0 0.0\n0.0 1.0\xe9\n")
    return path


def _oversized_file(tmp_path, header):
    path = tmp_path / "oversized.mat"
    path.write_text(f"{header}\n1 2\n")
    return path


@pytest.mark.parametrize("make_args", [
    lambda tmp: ["diagnose", "--in", str(tmp / "missing.mat")],
    lambda tmp: ["diagnose", "--in", str(tmp)],
    lambda tmp: ["diagnose", "--in", str(_non_ascii_file(tmp))],
    lambda tmp: ["diagnose", "--in", str(_oversized_file(tmp, "1000000000000 2"))],
    lambda tmp: ["diagnose", "--in", str(_oversized_file(tmp, "2 1000000000000"))],
    lambda tmp: ["factor", "--alg", "w2", "--in", str(tmp / "missing.mat"),
                 "--out", str(tmp / "l.mat")],
    lambda tmp: ["gen", "--family", "minij", "--out", str(tmp / "no-dir" / "a.mat")],
    lambda tmp: ["diagnose", "--family", "minij", "--csv", str(tmp / "no-dir" / "d.csv")],
    lambda tmp: ["table", "--id", "3", "--csv", str(tmp / "no-dir" / "t.csv")],
    lambda tmp: ["sweep", "--from", "1", "--to", "2", "--csv", str(tmp / "no-dir" / "s.csv")],
], ids=["diagnose-missing", "diagnose-directory", "diagnose-non-ascii",
        "diagnose-oversized-rows", "diagnose-oversized-cols", "factor-missing",
        "gen-out-dir-missing", "diagnose-csv-dir-missing", "table-csv-dir-missing",
        "sweep-csv-dir-missing"])
def test_file_errors_are_usage_errors(tmp_path, capsys, monkeypatch, make_args):
    # a file that cannot be read or written ends the run before any work
    calls = []
    real = diagnostics.diagnose
    monkeypatch.setattr(diagnostics, "diagnose", lambda *a: calls.append(a) or real(*a))
    assert main(make_args(tmp_path)) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err and "numerical failure" not in err
