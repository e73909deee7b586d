"""Print the sha256 of every output of a fixed set of sympllt commands.

    python3 tools/output_digests.py > digests.txt

Each command runs in this process through ``sympllt.cli.main``, with the
sympllt of this checkout's ``src/`` and a temporary directory as the
working directory, so nothing is written to the repository.  One line
``name sha256`` is printed per output: a command's console output (its
standard output, standard error and exit code together) and each file it
writes.  Running the script on two checkouts, with the same BLAS thread
setting, and comparing the lines shows whether a change moved any bit of
these outputs.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from sympllt import cli  # noqa: E402
from sympllt.matio import read_matrix, write_matrix  # noqa: E402

# (name, argv, files the command writes)
COMMANDS = [
    ("check", ["check"], []),
    ("check-w2-fault", ["check", "--inject-w2-fault"], []),
    ("check-identity", ["check", "--scope", "identity"], []),
    ("check-minij", ["check", "--scope", "minij"], []),
    ("check-random", ["check", "--scope", "random"], []),
    ("check-pascal-w2-fault", ["check", "--scope", "pascal", "--inject-w2-fault"], []),
    ("check-unknown-scope", ["check", "--scope", "nope"], []),
    *((f"table-{i}", ["table", "--id", str(i), "--csv", f"table-{i}.csv"], [f"table-{i}.csv"])
      for i in (1, 2, 3)),
    ("sweep", ["sweep", "--from", "1", "--to", "100", "--seed", "9", "--csv", "sweep.csv"],
     ["sweep.csv"]),
    ("gen", ["gen", "--family", "random", "--n", "200", "--out", "random-200.mat"],
     ["random-200.mat"]),
    ("diagnose", ["diagnose", "--in", "random-200.mat", "--csv", "diagnose.csv"],
     ["diagnose.csv"]),
    *((f"factor-{alg}", ["factor", "--alg", alg, "--in", "random-200.mat", "--out", f"{alg}.mat"],
       [f"{alg}.mat"]) for alg in ("w1", "w2")),
    ("diagnose-bad-row", ["diagnose", "--in", "bad-row.mat"], []),
    ("diagnose-non-pd-schur", ["diagnose", "--in", "non-pd-schur.mat", "--csv",
                               "non-pd-schur.csv"], ["non-pd-schur.csv"]),
    ("diagnose-crlf", ["diagnose", "--in", "crlf.mat", "--csv", "crlf.csv"], ["crlf.csv"]),
    ("diagnose-mixed-ends", ["diagnose", "--in", "mixed-ends.mat"], []),
    ("diagnose-bad-then-latin", ["diagnose", "--in", "bad-then-latin.mat"], []),
]
BAD_ROW = 300  # the data row of bad-row.mat whose first value is not a float literal
LATIN_ROW = 390  # the data row of bad-then-latin.mat that holds a non-ASCII byte


def write_bad_row_copy():
    """bad-row.mat: random-200.mat with one token of data row BAD_ROW (1-based)
    corrupted, the last row of a block of lines that np.loadtxt rejects, so
    that read_matrix's line loop reads the block and names the row."""
    lines = Path("random-200.mat").read_text(encoding="ascii").split("\n")
    lines[BAD_ROW] = "x" + lines[BAD_ROW]
    Path("bad-row.mat").write_text("\n".join(lines), encoding="ascii")


def write_non_pd_schur_copy():
    """non-pd-schur.mat: random-200.mat with 50 I taken from its (2,2) block, so
    that W2's Schur step fails while W1's fields are computed; its row splits."""
    a = read_matrix("random-200.mat")
    n = a.shape[0] // 2
    a[n:, n:] -= 50.0 * np.eye(n)
    write_matrix("non-pd-schur.mat", a)


def write_crlf_copy():
    """crlf.mat: random-200.mat with every line ended by \\r\\n, which the line
    rule takes off before a block of lines reaches np.loadtxt."""
    Path("crlf.mat").write_bytes(Path("random-200.mat").read_bytes().replace(b"\n", b"\r\n"))


def write_mixed_ends_copy():
    """mixed-ends.mat: random-200.mat with its data rows ending in \\r, \\v, \\f,
    \\x1c, \\x1d and \\x1e in turn, every line end of a matrix file but \\n and
    \\r\\n.  np.loadtxt would read all but \\r as spaces; the line rule
    (str.splitlines) ends each line before a block of lines reaches it."""
    header, *rows = Path("random-200.mat").read_text(encoding="ascii").splitlines()
    ends = itertools.cycle("\r\v\f\x1c\x1d\x1e")
    text = header + "\n" + "".join(row + end for row, end in zip(rows, ends))
    Path("mixed-ends.mat").write_bytes(text.encode("ascii"))


def write_bad_then_latin_copy():
    """bad-then-latin.mat: random-200.mat with data row BAD_ROW corrupted as in
    bad-row.mat and a non-ASCII byte appended to data row LATIN_ROW, which
    read_matrix reaches only by reading on after the bad literal: the byte is
    the error reported."""
    lines = Path("random-200.mat").read_bytes().split(b"\n")
    lines[BAD_ROW] = b"x" + lines[BAD_ROW]
    lines[LATIN_ROW] += b" \xc3\xa9"
    Path("bad-then-latin.mat").write_bytes(b"\n".join(lines))


# the input files that a command reads, made from random-200.mat before it runs
COPIES = {"diagnose-bad-row": write_bad_row_copy, "diagnose-non-pd-schur": write_non_pd_schur_copy,
          "diagnose-crlf": write_crlf_copy, "diagnose-mixed-ends": write_mixed_ends_copy,
          "diagnose-bad-then-latin": write_bad_then_latin_copy}


def run(argv):
    """The bytes a command prints to stdout and stderr, and its exit code, as one blob."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{out.getvalue()}\0{err.getvalue()}\0exit {code}\n".encode()


def main():
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, argv, files in COMMANDS:
                if name in COPIES:
                    COPIES[name]()
                print(f"{name} {hashlib.sha256(run(argv)).hexdigest()}")
                for file in files:
                    print(f"{file} {hashlib.sha256(Path(file).read_bytes()).hexdigest()}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
