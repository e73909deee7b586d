import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

import sympllt
from sympllt import diagnostics, matio
from sympllt.cli import _build_parser, main
from sympllt.testmat import minij, hyperbolic_spd, random_pdp


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


def test_diagnose_with_both_in_and_family_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused before the file is read or a matrix generated
    calls = []
    monkeypatch.setattr(matio, "read_matrix", lambda *a: calls.append(a))
    monkeypatch.setattr(diagnostics, "generate_family", lambda *a, **k: calls.append(a))
    src = tmp_path / "a.mat"
    assert main(["diagnose", "--in", str(src), "--family", "minij"]) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: diagnose takes exactly one of --family and --in\n"


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


@pytest.mark.parametrize("command,in_file,expected", [
    (["diagnose", "--family", "hyperbolic", "--theta", "200"], False,
     "a computed quantity overflowed to a non-finite value"),
    (["diagnose", "--in"], True, "a computed quantity overflowed to a non-finite value"),
    (["factor", "--alg", "w2", "--out", "l.mat", "--in"], True,
     "pivot 2 is not positive"),
], ids=["diagnose-family", "diagnose-in", "factor-in"])
def test_overflowing_input_prints_no_numpy_warning(tmp_path, command, in_file, expected):
    # in a child process, so numpy's warnings would reach its standard error
    if in_file:
        matio.write_matrix(tmp_path / "a.mat", hyperbolic_spd(200.0))
        command = [*command, "a.mat"]
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sympllt.__file__)))
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "sympllt.cli", *command],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith(f"numerical failure: {expected}")
    assert proc.stderr.count("\n") == 1


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


@pytest.mark.parametrize("args", [
    ["table", "--id", "1"],
    ["diagnose", "--family", "minij"],
], ids=["table", "diagnose"])
def test_a_row_command_whose_csv_write_fails_prints_nothing(tmp_path, capsys, monkeypatch, args):
    # the CSV is written before the text is printed, so a failed write prints nothing
    def unwritable(path, rows):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(diagnostics, "write_csv", unwritable)
    assert main([*args, "--csv", str(tmp_path / "rows.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")


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
    # the full run's skip reasons quote pivots, which print as plain floats
    assert main(["check"]) == 0
    assert not [line for line in capsys.readouterr().out.splitlines() if "np." in line]


def test_check_fault_injection_nonzero_exit(capsys):
    code = main(["check", "--scope", "minij", "--inject-w2-fault"])
    assert code == 1
    assert "violated" in capsys.readouterr().out


def test_every_subcommand_names_its_handler():
    # a subcommand added without set_defaults(run=...) fails here, not in main
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices
    for name, command in sub.choices.items():
        assert callable(command.get_default("run")), name


def test_cli_choices_come_from_the_registry():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def choices(command, option):
        (action,) = [a for a in sub.choices[command]._actions if option in a.option_strings]
        return action.choices

    assert choices("gen", "--family") == list(diagnostics.FAMILIES)
    assert choices("diagnose", "--family") == list(diagnostics.FAMILIES)
    assert choices("sweep", "--family") == [
        name for name, (_, _, max_n) in diagnostics.FAMILIES.items() if max_n is not None]
    assert choices("table", "--id") == list(diagnostics.TABLES)


def test_unknown_check_scope_lists_the_scopes(capsys):
    assert main(["check", "--scope", "X"]) == 2
    assert capsys.readouterr().err == (
        "error: run_checks: no fixtures match scope 'X' (scopes: all, identity, minij,"
        " hyperbolic, hyperbolic-inverse, pascal, diagt, random)\n")


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
    ["gen", "--family", "random", "--n", "1000000"],
    ["diagnose", "--family", "random", "--n", "1001"],
    ["sweep", "--family", "pascal", "--from", "1", "--to", "17"],
    ["sweep", "--from", "999", "--to", "1001"],
])
def test_out_of_range_family_argument_is_usage_error(tmp_path, capsys, monkeypatch, args):
    # a bad argument leaves no file: the probe of --out/--csv removes what it
    # made; and no row is computed, not even the rows of a sweep below its limit
    calls = []
    monkeypatch.setattr(diagnostics, "diagnose", lambda *a: calls.append(a))
    out = tmp_path / "x.mat"
    args = [*args, "--out" if args[0] == "gen" else "--csv", str(out)]
    assert main(args) == 2
    assert calls == []
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


def _digit_separator_file(tmp_path):
    path = tmp_path / "separator.mat"
    path.write_text("2 2\n1 0\n0 1_0\n")
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
    lambda tmp: ["diagnose", "--in", str(_digit_separator_file(tmp))],
    lambda tmp: ["table", "--id", "1", "--csv", ""],
], ids=["diagnose-missing", "diagnose-directory", "diagnose-non-ascii",
        "diagnose-oversized-rows", "diagnose-oversized-cols", "factor-missing",
        "gen-out-dir-missing", "diagnose-csv-dir-missing", "table-csv-dir-missing",
        "sweep-csv-dir-missing", "diagnose-digit-separator", "table-csv-empty"])
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_asymmetric_file_with_overflowing_norm_is_usage_error(tmp_path, capsys):
    # ||a||_F overflows to inf, which once let any asymmetry through
    a = np.diag([1e200] * 4)
    a[2, 3], a[3, 2] = 5e199, -5e199
    src = tmp_path / "asym.mat"
    matio.write_matrix(src, a)
    assert main(["diagnose", "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BlockPartition: asymmetry")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["gen", "factor-w1", "factor-w2"])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, command, target):
    from sympllt import cli

    calls = []

    def recorded(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "generate_family",
                        recorded("generate_family", diagnostics.generate_family))
    monkeypatch.setattr(cli, "algorithm_w1", recorded("algorithm_w1", cli.algorithm_w1))
    monkeypatch.setattr(cli, "algorithm_w2", recorded("algorithm_w2", cli.algorithm_w2))
    src = tmp_path / "in" / "a.mat"
    src.parent.mkdir()
    matio.write_matrix(src, minij())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "no-dir" / "x.mat" if target == "missing-dir" else out_dir
    if command == "gen":
        args = ["gen", "--family", "random", "--n", "5", "--out", str(out)]
    else:
        args = ["factor", "--alg", command[-2:], "--in", str(src), "--out", str(out)]
    assert main(args) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "factor", "diagnose-family", "diagnose-in",
                                     "table", "sweep"])
def test_each_output_path_is_checked_once_before_the_work(tmp_path, monkeypatch, command):
    from sympllt import cli

    # a file, not a list: sweep rows may be computed in forked workers,
    # whose appends to a list in this process would not show
    log = tmp_path / "calls.log"

    def recorded(name, fn):
        def call(*args, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)
        return call

    src = tmp_path / "a.mat"
    matio.write_matrix(src, minij())
    out = str(tmp_path / "out")
    args = {
        "gen": ["gen", "--family", "minij", "--out", out],
        "factor": ["factor", "--alg", "w2", "--in", str(src), "--out", out],
        "diagnose-family": ["diagnose", "--family", "minij", "--csv", out],
        "diagnose-in": ["diagnose", "--in", str(src), "--csv", out],
        "table": ["table", "--id", "3", "--csv", out],
        "sweep": ["sweep", "--from", "1", "--to", "2", "--csv", out],
    }[command]
    monkeypatch.setattr(cli, "_require_writable",
                        recorded("require_writable", cli._require_writable))
    monkeypatch.setattr(matio, "read_matrix", recorded("read_matrix", matio.read_matrix))
    monkeypatch.setattr(diagnostics, "generate_family",
                        recorded("generate_family", diagnostics.generate_family))
    monkeypatch.setattr(diagnostics, "diagnose", recorded("diagnose", diagnostics.diagnose))
    assert main(args) == 0
    calls = log.read_text(encoding="ascii").split()
    assert calls[0] == "require_writable"
    assert calls.count("require_writable") == 1
    assert len(calls) > 1
    assert os.path.getsize(out) > 0


def test_out_check_leaves_an_existing_file_until_the_write(tmp_path):
    out = tmp_path / "a.mat"
    out.write_text("old")
    # a bad argument ends the run after the writability check: the file stays
    assert main(["gen", "--family", "pascal", "--n", "20", "--out", str(out)]) == 2
    assert out.read_text() == "old"
    assert main(["gen", "--family", "minij", "--out", str(out)]) == 0
    assert np.array_equal(matio.read_matrix(out), minij())


@pytest.mark.parametrize("bad, good", [
    (["gen", "--family", "pascal", "--n", "20", "--out"],
     ["gen", "--family", "minij", "--out"]),
    (["sweep", "--from", "5", "--to", "1", "--csv"],
     ["sweep", "--from", "1", "--to", "2", "--csv"]),
    (["diagnose", "--family", "pascal", "--n", "20", "--csv"],
     ["diagnose", "--family", "minij", "--csv"]),
], ids=["gen-out", "sweep-csv", "diagnose-csv"])
def test_dangling_symlink_output(tmp_path, bad, good):
    # the check opens the symlink's target; a file it makes it removes again
    target = tmp_path / "target"
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main([*bad, str(link)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]
    assert link.is_symlink() and not target.exists()
    # a good run writes through the link
    assert main([*good, str(link)]) == 0
    assert target.stat().st_size > 0


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("edit, code, err", [
    (lambda lines: lines, 0, b""),
    (lambda lines: [b"2 2", b"1 0", b"\xc3\xa9 1", b""], 2,
     b"error: line 3: non-ASCII byte 0xc3\n"),
    # the byte lies far past the bad literal, so the reader reads on after its error
    (lambda lines: [lines[0], b"x" + lines[1], *lines[2:299], lines[299] + b" \xc3\xa9",
                    *lines[300:]], 2, b"error: line 300: non-ASCII byte 0xc3\n"),
], ids=["order-400", "non-ascii-line-3", "bad-literal-then-non-ascii"])
def test_diagnose_reads_an_order_400_file_from_a_pipe(tmp_path, edit, code, err):
    # a pipe cannot be read again, so its lines are checked and parsed as they
    # arrive; the row itself may split over forked children either way
    path = tmp_path / "a.mat"
    matio.write_matrix(path, random_pdp(200, 1).assemble())
    path.write_bytes(b"\n".join(edit(path.read_bytes().split(b"\n"))))
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sympllt.__file__)))
    env = dict(os.environ, PYTHONPATH=package_root, OPENBLAS_NUM_THREADS="1")
    cli = [sys.executable, "-m", "sympllt.cli", "diagnose", "--in"]
    piped = subprocess.run(cli + ["/dev/stdin"], input=path.read_bytes(), capture_output=True,
                           env=env, timeout=120)
    from_file = subprocess.run(cli + [str(path)], capture_output=True, env=env, timeout=120)
    assert piped.returncode == from_file.returncode == code, piped.stderr
    assert piped.stdout == from_file.stdout and piped.stderr == from_file.stderr == err
    assert (b"file(0)" in piped.stdout) == (code == 0)
