"""Seeded fuzz of the command line: mutated matrix files and arguments.

Every run of ``cli.main`` must end with exit 0, 1, 2 or 3, or with
argparse's exit 2, and never let an exception escape.  The mutations come
from the package's own SplitMix64 stream, so a failure reproduces from
its case number.
"""

import numpy as np
import pytest

from sympllt import matio
from sympllt.cli import main
from sympllt.testmat import SplitMix64, hyperbolic_spd, minij, random_pdp

CASES = 2000

BAD_TOKENS = ["nan", "-inf", "1e999", "-1e999", "1_0", "0x10", "1.0.0", "--1", "e5",
              "é", "١", "1,5", "'1'"]
HUGE = ["1000000000", "100000000", "999999999"]


def pick(rng, options):
    return options[rng.next_u64() % len(options)]


def base_matrices():
    return [minij(), hyperbolic_spd(3.0), random_pdp(3, 1).assemble(), np.eye(2)]


def mutate_matrix_text(rng, lines):
    """One mutation of a matrix file's lines (header first)."""
    rows = [i for i, line in enumerate(lines) if i and line.split()]
    kind = rng.next_u64() % 9 if rows else 0
    if kind == 0:  # header dimensions, up to 1e9
        r, c = (lines[0].split() + ["1", "1"])[:2]
        lines[0] = " ".join([pick(rng, HUGE + [r, "0", "-1", str(len(rows) + 1)]),
                             pick(rng, HUGE + [c, "0", "1", "5"])])
        return lines
    row = pick(rng, rows)
    tokens = lines[row].split()
    col = rng.next_u64() % len(tokens)
    if kind == 1:
        del lines[row]
    elif kind == 2:
        lines.insert(row, lines[row])
    elif kind == 3:
        del tokens[col]
    elif kind == 4:
        tokens.insert(col, tokens[col])
    elif kind in (5, 6):
        tokens[col] = pick(rng, BAD_TOKENS)
    elif kind == 7:
        lines.insert(row, pick(rng, ["# comment", "", "   ", "\u00ff"]))
    else:
        lines[0] = pick(rng, ["", "2", "2 2 2", "a b", "2.0 2", "# 2 2"])
    if kind in (3, 4, 5, 6):
        lines[row] = " ".join(tokens)
    return lines


def matrix_file(rng, path):
    a = pick(rng, base_matrices())
    if rng.next_u64() % 4 == 0:  # entries scaled to the edge of the range
        a = a * 10.0 ** pick(rng, [300, 305, -300, -310])
    matio.write_matrix(path, a)
    lines = path.read_text(encoding="ascii").splitlines()
    for _ in range(rng.next_u64() % 3):
        lines = mutate_matrix_text(rng, lines)
    ending = pick(rng, ["\n", "\r\n", "\r"])
    data = (ending.join(lines) + ending).encode("utf-8")
    if rng.next_u64() % 16 == 0:  # a raw byte that is not ASCII, or NUL
        at = rng.next_u64() % (len(data) + 1)
        data = data[:at] + bytes([pick(rng, [0x80, 0xE9, 0xFF, 0x00])]) + data[at:]
    path.write_bytes(data)
    return path


FAMILY_ARGS = {
    "--family": ["minij", "hyperbolic", "hyperbolic-inverse", "pascal", "diagt",
                 "random", "hilbert"],
    "--theta": ["3", "0", "-1", "200", "800", "1e308", "-1e308", "nan", "inf", "x"],
    "--n": ["1", "2", "6", "16", "17", "0", "-3", "1.5"],
    "--t": ["1", "0.5", "1e6", "1e308", "inf", "nan"],
    "--seed": ["0", "-1", "18446744073709551617", "9"],
}


def family_arguments(rng):
    args = []
    for flag, values in FAMILY_ARGS.items():
        if flag == "--family" or rng.next_u64() % 2:
            args += [flag, pick(rng, values)]
    return args


def command(rng, tmp_path):
    kind = rng.next_u64() % 4
    out = str(tmp_path / "out.mat")
    if kind == 0:
        return ["diagnose", "--in", str(matrix_file(rng, tmp_path / "in.mat"))]
    if kind == 1:
        return ["factor", "--alg", pick(rng, ["w1", "w2"]),
                "--in", str(matrix_file(rng, tmp_path / "in.mat")), "--out", out]
    args = family_arguments(rng)
    if kind == 2:
        return ["diagnose", *args]
    args = ["gen", *args, "--out", out]
    if rng.next_u64() % 8 == 0:  # a required argument left out
        del args[1:3]
    return args


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fuzzed_command_lines_end_with_an_exit_code(tmp_path, capsys):
    rng = SplitMix64(20231011)
    for case in range(CASES):
        argv = command(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
            assert code == 2, (case, argv)
        assert code in (0, 1, 2, 3), (case, argv, code)
        assert "Traceback" not in capsys.readouterr().err, (case, argv)
