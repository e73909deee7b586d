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
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sympllt import cli  # noqa: E402

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
]
BAD_ROW = 300  # the data row of bad-row.mat whose first value is not a float literal


def write_bad_row_copy():
    """bad-row.mat: random-200.mat with one token of data row BAD_ROW (1-based)
    corrupted, a row that a matrix file's split parse reads in its child."""
    lines = Path("random-200.mat").read_text(encoding="ascii").split("\n")
    lines[BAD_ROW] = "x" + lines[BAD_ROW]
    Path("bad-row.mat").write_text("\n".join(lines), encoding="ascii")


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
                if name == "diagnose-bad-row":
                    write_bad_row_copy()
                print(f"{name} {hashlib.sha256(run(argv)).hexdigest()}")
                for file in files:
                    print(f"{file} {hashlib.sha256(Path(file).read_bytes()).hexdigest()}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
